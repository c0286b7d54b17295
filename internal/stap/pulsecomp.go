package stap

import (
	"fmt"
	"math/cmplx"

	"pstap/internal/cube"
	"pstap/internal/fft"
	"pstap/internal/radar"
)

// MatchedFilter holds the frequency-domain pulse-compression filter: the
// conjugated K-point FFT of the zero-padded transmit replica.
type MatchedFilter struct {
	K    int
	Hat  []complex128
	plan *fft.Plan
}

// NewMatchedFilter builds the filter for the given replica and range
// extent k.
func NewMatchedFilter(k int, replica []complex128) *MatchedFilter {
	if len(replica) > k {
		panic(fmt.Sprintf("stap: replica length %d exceeds K=%d", len(replica), k))
	}
	buf := make([]complex128, k)
	copy(buf, replica)
	plan := fft.MustCachedPlan(k)
	plan.Forward(buf)
	for i := range buf {
		buf[i] = cmplx.Conj(buf[i])
	}
	return &MatchedFilter{K: k, Hat: buf, plan: plan}
}

// PulseCompress performs fast circular convolution of every (Doppler bin,
// beam) range profile with the matched filter, then squares the magnitude
// to move to the real power domain (halving the data size and avoiding the
// square root, as the paper does after pulse compression).
//
// Input: beamformed cube (N x M x K, radar.BeamOrder). Output: real power
// cube of the same shape.
func PulseCompress(p radar.Params, beams *cube.Cube, mf *MatchedFilter) *cube.RealCube {
	if beams.Axes != radar.BeamOrder {
		panic(fmt.Sprintf("stap: PulseCompress wants %v, got %v", radar.BeamOrder, beams.Axes))
	}
	if beams.Dim != [3]int{p.N, p.M, p.K} {
		panic(fmt.Sprintf("stap: PulseCompress dims %v", beams.Dim))
	}
	out := cube.NewReal(radar.BeamOrder, p.N, p.M, p.K)
	PulseCompressRows(p, beams, mf, out, 0, p.N)
	return out
}

// PulseCompressRows compresses Doppler bins [lo, hi) only; beams and out
// may be global (dim0 == N) or bin-local slabs of identical dim0 (then lo
// and hi index the slab). It is Workspace.PulseCompressRows on a fresh
// workspace, single-threaded.
func PulseCompressRows(p radar.Params, beams *cube.Cube, mf *MatchedFilter, out *cube.RealCube, lo, hi int) {
	new(Workspace).PulseCompressRows(p, beams, mf, out, lo, hi, 1)
}

// PulseCompressRows is the per-processor kernel of task 5, partitioned
// along the Doppler dimension: rows [lo, hi) of beams compressed into the
// same rows of out. threads > 1 spreads the rows over that many threads.
func (w *Workspace) PulseCompressRows(p radar.Params, beams *cube.Cube, mf *MatchedFilter, out *cube.RealCube, lo, hi, threads int) {
	if mf.K != p.K {
		panic("stap: matched filter length mismatch")
	}
	if threaded(hi-lo, threads) {
		w.compressThreaded(p, beams, mf, out, lo, hi, threads)
		return
	}
	w.compressRows(p, beams, mf, out, lo, hi)
}

// compressThreaded is PulseCompressRows' threads > 1 path (see threaded).
func (w *Workspace) compressThreaded(p radar.Params, beams *cube.Cube, mf *MatchedFilter, out *cube.RealCube, lo, hi, threads int) {
	w.forThreads(hi-lo, threads, func(tw *Workspace, a, b int) { tw.compressRows(p, beams, mf, out, lo+a, lo+b) })
}

// compressRows compresses rows [lo, hi) on the calling goroutine.
func (w *Workspace) compressRows(p radar.Params, beams *cube.Cube, mf *MatchedFilter, out *cube.RealCube, lo, hi int) {
	buf := w.lineBuf(p.K)
	for d := lo; d < hi; d++ {
		for m := 0; m < p.M; m++ {
			copy(buf, beams.Vec(d, m))
			mf.plan.Forward(buf)
			for i := range buf {
				buf[i] *= mf.Hat[i]
			}
			mf.plan.Inverse(buf)
			dst := out.Vec(d, m)
			for i, v := range buf {
				dst[i] = real(v)*real(v) + imag(v)*imag(v)
			}
		}
	}
}
