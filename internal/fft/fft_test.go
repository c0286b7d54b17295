package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func randVec(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxAbsDiff(a, b []complex128) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardMatchesDFTPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128, 512} {
		x := randVec(rng, n)
		want := DFT(x)
		got := append([]complex128(nil), x...)
		MustPlan(n).Forward(got)
		if d := maxAbsDiff(got, want); d > eps*float64(n) {
			t.Errorf("n=%d: max diff %g", n, d)
		}
	}
}

func TestForwardMatchesDFTNonPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{3, 5, 6, 7, 12, 75, 100, 125, 137} {
		x := randVec(rng, n)
		want := DFT(x)
		got := append([]complex128(nil), x...)
		MustPlan(n).Forward(got)
		if d := maxAbsDiff(got, want); d > 1e-8*float64(n) {
			t.Errorf("n=%d: max diff %g", n, d)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 8, 128, 512, 7, 75, 100} {
		p := MustPlan(n)
		x := randVec(rng, n)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		if d := maxAbsDiff(x, y); d > 1e-9*float64(n) {
			t.Errorf("n=%d: roundtrip diff %g", n, d)
		}
	}
}

func TestInverseUnscaled(t *testing.T) {
	p := MustPlan(8)
	x := randVec(rand.New(rand.NewSource(4)), 8)
	scaled := append([]complex128(nil), x...)
	unscaled := append([]complex128(nil), x...)
	p.Inverse(scaled)
	p.InverseUnscaled(unscaled)
	for i := range scaled {
		if d := cmplx.Abs(scaled[i]*8 - unscaled[i]); d > eps {
			t.Fatalf("element %d: scaled*n != unscaled (diff %g)", i, d)
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{16, 128, 75} {
		x := randVec(rng, n)
		var et float64
		for _, v := range x {
			et += real(v)*real(v) + imag(v)*imag(v)
		}
		y := append([]complex128(nil), x...)
		MustPlan(n).Forward(y)
		var ef float64
		for _, v := range y {
			ef += real(v)*real(v) + imag(v)*imag(v)
		}
		ef /= float64(n)
		if math.Abs(et-ef) > 1e-8*et {
			t.Errorf("n=%d: Parseval violated: time %g freq %g", n, et, ef)
		}
	}
}

func TestLinearityProperty(t *testing.T) {
	p := MustPlan(64)
	f := func(seed int64, ar, ai, br, bi float64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randVec(rng, 64)
		y := randVec(rng, 64)
		a := complex(ar, ai)
		b := complex(br, bi)
		// clamp scalars to keep the tolerance meaningful
		if cmplx.Abs(a) > 100 || cmplx.Abs(b) > 100 {
			return true
		}
		comb := make([]complex128, 64)
		for i := range comb {
			comb[i] = a*x[i] + b*y[i]
		}
		p.Forward(comb)
		fx := append([]complex128(nil), x...)
		fy := append([]complex128(nil), y...)
		p.Forward(fx)
		p.Forward(fy)
		for i := range comb {
			if cmplx.Abs(comb[i]-(a*fx[i]+b*fy[i])) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTimeShiftProperty(t *testing.T) {
	// A circular shift by s multiplies bin k by e^{-2πi k s / n}.
	n := 128
	p := MustPlan(n)
	rng := rand.New(rand.NewSource(7))
	x := randVec(rng, n)
	for _, s := range []int{1, 3, 17, 64} {
		shifted := make([]complex128, n)
		for i := range shifted {
			shifted[i] = x[(i+s)%n]
		}
		fx := append([]complex128(nil), x...)
		fs := append([]complex128(nil), shifted...)
		p.Forward(fx)
		p.Forward(fs)
		for k := 0; k < n; k++ {
			phase := cmplx.Exp(complex(0, 2*math.Pi*float64(k)*float64(s)/float64(n)))
			if cmplx.Abs(fs[k]-fx[k]*phase) > 1e-8 {
				t.Fatalf("shift %d bin %d mismatch", s, k)
			}
		}
	}
}

func TestImpulseTransform(t *testing.T) {
	n := 32
	x := make([]complex128, n)
	x[0] = 1
	MustPlan(n).Forward(x)
	for k, v := range x {
		if cmplx.Abs(v-1) > eps {
			t.Fatalf("impulse bin %d = %v, want 1", k, v)
		}
	}
}

func TestSingleToneBin(t *testing.T) {
	n := 128
	k0 := 9
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(k0)*float64(i)/float64(n)))
	}
	MustPlan(n).Forward(x)
	for k, v := range x {
		want := complex(0, 0)
		if k == k0 {
			want = complex(float64(n), 0)
		}
		if cmplx.Abs(v-want) > 1e-8 {
			t.Fatalf("bin %d = %v, want %v", k, v, want)
		}
	}
}

func TestNewPlanErrors(t *testing.T) {
	if _, err := NewPlan(0); err == nil {
		t.Error("NewPlan(0) should fail")
	}
	if _, err := NewPlan(-4); err == nil {
		t.Error("NewPlan(-4) should fail")
	}
}

func TestMustPlanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustPlan(-1) should panic")
		}
	}()
	MustPlan(-1)
}

func TestForwardLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	MustPlan(8).Forward(make([]complex128, 4))
}

func TestCachedPlanSharesInstances(t *testing.T) {
	a := MustCachedPlan(64)
	b := MustCachedPlan(64)
	if a != b {
		t.Error("cached plans for the same length must be shared")
	}
	if a.Len() != 64 {
		t.Error("length")
	}
	if _, err := CachedPlan(-1); err == nil {
		t.Error("invalid length should error")
	}
}

func TestCachedPlanConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	plans := make([]*Plan, 16)
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i] = MustCachedPlan(96)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(plans); i++ {
		if plans[i] != plans[0] {
			t.Fatal("concurrent CachedPlan returned different instances")
		}
	}
	// and they transform correctly
	x := randVec(rand.New(rand.NewSource(1)), 96)
	want := DFT(x)
	got := append([]complex128(nil), x...)
	plans[0].Forward(got)
	if d := maxAbsDiff(got, want); d > 1e-7 {
		t.Errorf("cached plan transform diff %g", d)
	}
}

func TestConvenienceWrappers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randVec(rng, 16)
	y := append([]complex128(nil), x...)
	Forward(y)
	Inverse(y)
	if d := maxAbsDiff(x, y); d > eps {
		t.Errorf("wrapper roundtrip diff %g", d)
	}
}

func TestWindowCoefficients(t *testing.T) {
	for _, kind := range []WindowKind{Rectangular, Hanning, Hamming, Blackman} {
		w := Window(kind, 125)
		if len(w) != 125 {
			t.Fatalf("%v: length %d", kind, len(w))
		}
		for i, v := range w {
			if v < -1e-12 || v > 1+1e-12 {
				t.Errorf("%v[%d] = %g out of [0,1]", kind, i, v)
			}
		}
		// symmetry
		for i := range w {
			j := len(w) - 1 - i
			if math.Abs(w[i]-w[j]) > 1e-12 {
				t.Errorf("%v not symmetric at %d: %g vs %g", kind, i, w[i], w[j])
			}
		}
	}
}

func TestWindowHanningMatlabConvention(t *testing.T) {
	// MATLAB hanning(4) = [0.3455, 0.9045, 0.9045, 0.3455]
	w := Window(Hanning, 4)
	want := []float64{0.3454915, 0.9045085, 0.9045085, 0.3454915}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-6 {
			t.Errorf("hanning(4)[%d] = %g, want %g", i, w[i], want[i])
		}
	}
}

func TestWindowEdgeCases(t *testing.T) {
	if Window(Hanning, 0) != nil {
		t.Error("n=0 should return nil")
	}
	for _, kind := range []WindowKind{Rectangular, Hanning, Hamming, Blackman} {
		w := Window(kind, 1)
		if len(w) != 1 {
			t.Fatalf("%v n=1: len %d", kind, len(w))
		}
		if kind != Hanning && math.Abs(w[0]-1) > eps {
			t.Errorf("%v(1)[0] = %g, want 1", kind, w[0])
		}
	}
}

func TestWindowNames(t *testing.T) {
	cases := map[WindowKind]string{
		Rectangular: "rectangular", Hanning: "hanning",
		Hamming: "hamming", Blackman: "blackman",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("String() = %q, want %q", k.String(), want)
		}
	}
	if WindowKind(99).String() != "WindowKind(99)" {
		t.Errorf("unknown kind String() = %q", WindowKind(99).String())
	}
}

func TestFlopsForward(t *testing.T) {
	if got := FlopsForward(128); got != 5*128*7 {
		t.Errorf("FlopsForward(128) = %d, want %d", got, 5*128*7)
	}
	if got := FlopsForward(512); got != 5*512*9 {
		t.Errorf("FlopsForward(512) = %d, want %d", got, 5*512*9)
	}
	if FlopsForward(1) != 0 || FlopsForward(0) != 0 {
		t.Error("degenerate lengths should cost 0")
	}
}

func TestBluesteinMatchesPow2(t *testing.T) {
	// Sanity: a Bluestein plan built for a power-of-two length (forced via
	// newBluestein) must agree with the radix-2 path.
	rng := rand.New(rand.NewSource(9))
	x := randVec(rng, 16)
	bs, err := newBluestein(16)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]complex128(nil), x...)
	bs.transform(got, false)
	want := append([]complex128(nil), x...)
	MustPlan(16).Forward(want)
	if d := maxAbsDiff(got, want); d > 1e-8 {
		t.Errorf("bluestein vs radix-2 diff %g", d)
	}
}

// radix2Reference is the transform the fused one replaced: the
// bit-reversal permutation by a branch per index, then one radix-2 pass
// per stage of size 2, 4, ..., n.
func radix2Reference(p *Plan, x []complex128, inv bool) {
	for i := range x {
		if j := int(bits.Reverse(uint(i)) >> (bits.UintSize - p.logn)); i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := p.twiddle
	if inv {
		tw = p.inverse
	}
	n := p.n
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			k := 0
			for off := start; off < start+half; off++ {
				w := tw[k]
				a := x[off]
				b := x[off+half] * w
				x[off] = a + b
				x[off+half] = a - b
				k += step
			}
		}
	}
}

// sameBits reports whether two floats have the same bits, except that any
// NaN matches any NaN. The payload a NaN result carries depends on the
// operand order the compiler picks for + and *, not on the algorithm: fed
// NaNs of distinct payloads, the two loops differ even at n = 2, where both
// run the same single butterfly. So NaNs compare by position only.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestTransformBitExact holds the fused radix-2² transform to the
// stage-by-stage radix-2 loop, bit for bit, forward and inverse, for every
// power of two from 1 to 4096: on random inputs, on inputs salted with
// signed zeros, infinities, subnormals and ±1e308, and on inputs of signed
// zeros only.
func TestTransformBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 2.5e-310, 1e308, -1e308}
	pick := func() float64 { return specials[rng.Intn(len(specials))] }
	for n := 1; n <= 4096; n <<= 1 {
		salted := randVec(rng, n)
		for i := range salted {
			switch rng.Intn(4) {
			case 0:
				salted[i] = complex(pick(), imag(salted[i]))
			case 1:
				salted[i] = complex(real(salted[i]), pick())
			case 2:
				salted[i] = complex(pick(), pick())
			}
		}
		zeros := make([]complex128, n)
		for i := range zeros {
			zeros[i] = complex(specials[rng.Intn(2)], specials[rng.Intn(2)])
		}
		p := MustPlan(n)
		for name, in := range map[string][]complex128{"random": randVec(rng, n), "salted": salted, "zeros": zeros} {
			for _, inv := range []bool{false, true} {
				got := append([]complex128(nil), in...)
				want := append([]complex128(nil), in...)
				p.transform(got, inv)
				radix2Reference(p, want, inv)
				for i := range got {
					if !sameBits(real(got[i]), real(want[i])) || !sameBits(imag(got[i]), imag(want[i])) {
						t.Fatalf("n=%d %s inverse=%v: element %d = %v, radix-2 loop gives %v", n, name, inv, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func benchmarkFFT(b *testing.B, n int) {
	p := MustPlan(n)
	x := randVec(rand.New(rand.NewSource(1)), n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkFFT16(b *testing.B)  { benchmarkFFT(b, 16) }
func BenchmarkFFT64(b *testing.B)  { benchmarkFFT(b, 64) }
func BenchmarkFFT128(b *testing.B) { benchmarkFFT(b, 128) }
func BenchmarkFFT256(b *testing.B) { benchmarkFFT(b, 256) }
func BenchmarkFFT512(b *testing.B) { benchmarkFFT(b, 512) }
