// Package fft provides complex fast Fourier transforms and window
// functions used by the STAP processing chain.
//
// The package implements an iterative radix-2² decimation-in-time FFT for
// power-of-two lengths (two radix-2 stages fused per pass over the data,
// one plain radix-2 stage first when log2 n is odd; bit for bit the
// stage-by-stage radix-2 result) and falls back to Bluestein's chirp-z
// algorithm for arbitrary lengths, so every transform length used by the
// radar code (Doppler FFTs of length N, pulse-compression FFTs of length
// K) is exact to floating-point accuracy. A quadratic reference DFT is provided for
// testing.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// Plan holds precomputed twiddle factors and bit-reversal permutation for a
// fixed transform length. Plans are safe for concurrent use after creation;
// each Execute call needs its own destination buffer.
type Plan struct {
	n       int
	logn    int
	swaps   []int32      // bit-reversal permutation as index pairs i < j to swap
	twiddle []complex128 // forward twiddle factors, n/2 entries
	inverse []complex128 // inverse twiddle factors, n/2 entries

	// Bluestein state (nil for power-of-two lengths).
	bs *bluestein
}

// NewPlan creates a transform plan for length n. n must be positive.
func NewPlan(n int) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fft: invalid length %d", n)
	}
	p := &Plan{n: n}
	if isPow2(n) {
		p.logn = bits.TrailingZeros(uint(n))
		p.swaps = bitReverseSwaps(n)
		p.twiddle = make([]complex128, n/2)
		p.inverse = make([]complex128, n/2)
		for k := 0; k < n/2; k++ {
			ang := -2 * math.Pi * float64(k) / float64(n)
			p.twiddle[k] = cmplx.Exp(complex(0, ang))
			p.inverse[k] = cmplx.Exp(complex(0, -ang))
		}
		return p, nil
	}
	bs, err := newBluestein(n)
	if err != nil {
		return nil, err
	}
	p.bs = bs
	return p, nil
}

// MustPlan is NewPlan that panics on error; for static lengths.
func MustPlan(n int) *Plan {
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Len returns the transform length.
func (p *Plan) Len() int { return p.n }

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// bitReverseSwaps lists the bit-reversal permutation of length n as the
// pairs it exchanges, so applying it takes no branch per index.
func bitReverseSwaps(n int) []int32 {
	logn := bits.TrailingZeros(uint(n))
	var swaps []int32
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse(uint(i)) >> (bits.UintSize - logn)); i < j {
			swaps = append(swaps, int32(i), int32(j))
		}
	}
	return swaps
}

// Forward computes the in-place forward DFT of x. len(x) must equal the
// plan length. The transform is unnormalized (matches MATLAB fft).
func (p *Plan) Forward(x []complex128) {
	p.transform(x, false)
}

// Inverse computes the in-place inverse DFT of x, normalized by 1/n
// (matches MATLAB ifft).
func (p *Plan) Inverse(x []complex128) {
	p.transform(x, true)
	scale := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= scale
	}
}

// InverseUnscaled computes the inverse DFT without the 1/n normalization.
func (p *Plan) InverseUnscaled(x []complex128) {
	p.transform(x, true)
}

func (p *Plan) transform(x []complex128, inv bool) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: length mismatch: plan %d, input %d", p.n, len(x)))
	}
	if p.bs != nil {
		p.bs.transform(x, inv)
		return
	}
	for k := 0; k+1 < len(p.swaps); k += 2 {
		i, j := p.swaps[k], p.swaps[k+1]
		x[i], x[j] = x[j], x[i]
	}
	tw := p.twiddle
	if inv {
		tw = p.inverse
	}
	n := p.n
	size := 4
	if p.logn&1 == 1 {
		// Odd log2 n: one radix-2 stage of size 2 (twiddle tw[0]) first.
		w := tw[0]
		for i := 0; i+1 < n; i += 2 {
			a := x[i]
			b := x[i+1] * w
			x[i] = a + b
			x[i+1] = a - b
		}
		size = 8
	}
	// Each pass runs the radix-2 stages of sizes size/2 and size. Points
	// i0..i3 are closed under both stages, so the pass does stage size/2's
	// two butterflies on them and then stage size's two, with the twiddles
	// (tw[0] included) the stage-by-stage loop would multiply by: the same
	// arithmetic in one sweep over x instead of two.
	for ; size <= n; size <<= 2 {
		quarter, half := size>>2, size>>1
		step := n / size
		for j := 0; j < quarter; j++ {
			w1 := tw[2*j*step]
			w2 := tw[j*step]
			w3 := tw[(j+quarter)*step]
			for i0 := j; i0 < n; i0 += size {
				i1, i2, i3 := i0+quarter, i0+half, i0+half+quarter
				a0, b0 := x[i0], x[i1]*w1
				a1, b1 := x[i2], x[i3]*w1
				y0, y1 := a0+b0, a0-b0
				y2, y3 := a1+b1, a1-b1
				t := y2 * w2
				x[i0], x[i2] = y0+t, y0-t
				u := y3 * w3
				x[i1], x[i3] = y1+u, y1-u
			}
		}
	}
}

// bluestein implements the chirp-z transform for arbitrary lengths by
// embedding the length-n DFT in a cyclic convolution of power-of-two
// length m >= 2n-1.
type bluestein struct {
	n    int
	m    int
	sub  *Plan        // power-of-two plan of length m
	w    []complex128 // chirp factors e^{-i pi k^2 / n}
	winv []complex128 // conjugate chirp
	bHat []complex128 // FFT of the chirp kernel
}

func newBluestein(n int) (*bluestein, error) {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	sub, err := NewPlan(m)
	if err != nil {
		return nil, err
	}
	bs := &bluestein{n: n, m: m, sub: sub}
	bs.w = make([]complex128, n)
	bs.winv = make([]complex128, n)
	for k := 0; k < n; k++ {
		// Use k^2 mod 2n to avoid large-angle precision loss.
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := -math.Pi * float64(kk) / float64(n)
		bs.w[k] = cmplx.Exp(complex(0, ang))
		bs.winv[k] = cmplx.Conj(bs.w[k])
	}
	b := make([]complex128, m)
	b[0] = bs.winv[0]
	for k := 1; k < n; k++ {
		b[k] = bs.winv[k]
		b[m-k] = bs.winv[k]
	}
	sub.Forward(b)
	bs.bHat = b
	return bs, nil
}

func (bs *bluestein) transform(x []complex128, inv bool) {
	n, m := bs.n, bs.m
	w, bHat := bs.w, bs.bHat
	if inv {
		// bHat corresponds to the forward chirp; for the inverse we can
		// use conjugation symmetry: IDFT(x) = conj(DFT(conj(x)))/n, but we
		// avoid the /n here because Plan.Inverse applies scaling.
		for i := range x {
			x[i] = cmplx.Conj(x[i])
		}
		bs.transform(x, false)
		for i := range x {
			x[i] = cmplx.Conj(x[i])
		}
		return
	}
	a := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * w[k]
	}
	bs.sub.Forward(a)
	for k := 0; k < m; k++ {
		a[k] *= bHat[k]
	}
	bs.sub.Inverse(a)
	for k := 0; k < n; k++ {
		x[k] = a[k] * w[k]
	}
}

// planCache shares plans by length across the process: plans are immutable
// after construction and safe for concurrent use, so the pipeline's many
// workers can all use the same twiddle tables.
var planCache sync.Map // int -> *Plan

// CachedPlan returns a shared plan for length n, building it on first use.
func CachedPlan(n int) (*Plan, error) {
	if p, ok := planCache.Load(n); ok {
		return p.(*Plan), nil
	}
	p, err := NewPlan(n)
	if err != nil {
		return nil, err
	}
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*Plan), nil
}

// MustCachedPlan is CachedPlan that panics on error.
func MustCachedPlan(n int) *Plan {
	p, err := CachedPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Forward is a convenience one-shot forward FFT; prefer a Plan in loops.
func Forward(x []complex128) {
	MustCachedPlan(len(x)).Forward(x)
}

// Inverse is a convenience one-shot inverse FFT (normalized by 1/n).
func Inverse(x []complex128) {
	MustCachedPlan(len(x)).Inverse(x)
}

// DFT computes the unnormalized discrete Fourier transform of x by the
// O(n^2) definition. It is intended as a test oracle.
func DFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = sum
	}
	return out
}

// FlopsForward returns the floating-point operation count convention used
// throughout this repository for an n-point complex FFT: 5 n log2(n).
// This is the standard radix-2 count (n/2 log2 n butterflies at 10 flops)
// and is the convention under which the paper's Table 1 Doppler, easy
// beamforming, hard beamforming and pulse compression entries reproduce
// exactly.
func FlopsForward(n int) int64 {
	if n <= 1 {
		return 0
	}
	log2 := math.Log2(float64(n))
	return int64(5 * float64(n) * log2)
}
