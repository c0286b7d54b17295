// Package stap implements the five processing steps of the PRI-staggered
// post-Doppler STAP algorithm the paper parallelizes — Doppler filter
// processing, easy/hard weight computation, beamforming, pulse compression
// and CFAR — plus a serial reference processor that chains them with the
// paper's temporal semantics (weights trained on CPI i-1 are applied to
// CPI i). The parallel pipeline in internal/pipeline decomposes exactly
// these functions across worker groups.
//
// Every per-CPI kernel has one implementation, in the form a pipeline
// worker calls: a Workspace method (DopplerFilterBlock, ExtractEasyRows,
// ExtractHardRows, BeamformEasySlab, BeamformHardSlab, PulseCompressRows,
// CFARRows) writing into buffers the caller owns, and for the weight tasks
// EasyWeightState / HardWeightState, which own their training history,
// steering vectors and solver workspace and write weights with
// ComputeInto. Warm, none of these allocates. The package-level functions
// of the same names, and Compute, are wrappers over a fresh Workspace or
// fresh output, kept for callers that process one CPI and keep its
// results (the serial Processor, tests, the benchmark's layer probes).
package stap

import (
	"fmt"

	"pstap/internal/cube"
	"pstap/internal/fft"
	"pstap/internal/radar"
)

// DopplerFilter performs the first pipeline task: per range cell and
// channel, optional range correction, tapering window, and a pair of
// PRI-staggered N-point FFTs over the pulse axis.
//
// Input is a raw CPI cube in radar.RawOrder (K x J x N). Output is the
// staggered CPI cube in radar.StaggeredOrder (K x 2J x N): output channel
// c < J holds the Doppler spectrum of pulses [0, N-stagger) of input
// channel c; output channel J+c holds the spectrum of pulses
// [stagger, N) of input channel c. Both windows are tapered with
// Window(kind, N-stagger) and zero-padded to N, matching the MATLAB
// rawToFFT.
//
// rangeGain, when non-nil, must have K entries; each range cell's pulses
// are scaled by rangeGain[r] before windowing (the paper's "range
// correction").
func DopplerFilter(p radar.Params, raw *cube.Cube, rangeGain []float64) *cube.Cube {
	if raw.Axes != radar.RawOrder {
		panic(fmt.Sprintf("stap: DopplerFilter wants %v, got %v", radar.RawOrder, raw.Axes))
	}
	if raw.Dim != [3]int{p.K, p.J, p.N} {
		panic(fmt.Sprintf("stap: DopplerFilter dims %v, want [%d %d %d]", raw.Dim, p.K, p.J, p.N))
	}
	if rangeGain != nil && len(rangeGain) != p.K {
		panic("stap: rangeGain length mismatch")
	}
	out := cube.New(radar.StaggeredOrder, p.K, 2*p.J, p.N)
	new(Workspace).DopplerFilterBlock(p, out, raw, rangeGain, cube.Block{Lo: 0, Hi: p.K}, 1)
	return out
}

// filterRanges runs the Doppler filter over global range cells [lo, hi),
// reading raw row r-inOff and writing out row r-outOff. This is the unit
// of work one Doppler-task processor (or one of its threads) executes in
// the parallel pipeline, where the CPI cube is partitioned across
// dimension K.
func (w *Workspace) filterRanges(p radar.Params, raw *cube.Cube, rangeGain []float64, out *cube.Cube, lo, hi, inOff, outOff int) {
	plan, win := w.doppler(p)
	for r := lo; r < hi; r++ {
		outR, inR := r-outOff, r-inOff
		gain := 1.0
		if rangeGain != nil {
			gain = rangeGain[r]
		}
		for j := 0; j < p.J; j++ {
			in := raw.Vec(inR, j)
			// First window: pulses [0, N-stagger), windowed, zero-padded
			// and transformed in place in the output row.
			buf := out.Vec(outR, j)
			for t := 0; t < p.N-p.Stagger; t++ {
				buf[t] = in[t] * complex(gain*win[t], 0)
			}
			for t := p.N - p.Stagger; t < p.N; t++ {
				buf[t] = 0
			}
			plan.Forward(buf)
			// Second (staggered) window: pulses [stagger, N).
			buf = out.Vec(outR, j+p.J)
			for t := 0; t < p.N-p.Stagger; t++ {
				buf[t] = in[t+p.Stagger] * complex(gain*win[t], 0)
			}
			for t := p.N - p.Stagger; t < p.N; t++ {
				buf[t] = 0
			}
			plan.Forward(buf)
		}
	}
}

// DopplerFilterBlock computes the Doppler filter output for one range
// block only, returning a block-local staggered cube of
// blk.Size() x 2J x N. raw may be the full K-range cube or a block-local
// slab of blk.Size() ranges (the form a parallel Doppler-task processor
// receives). rangeGain is always indexed by global range cell. plan, when
// non-nil, is the N-point FFT plan to use. It is Workspace.DopplerFilterBlock
// into a fresh cube.
func DopplerFilterBlock(p radar.Params, raw *cube.Cube, rangeGain []float64, blk cube.Block, plan *fft.Plan) *cube.Cube {
	out := cube.New(radar.StaggeredOrder, blk.Size(), 2*p.J, p.N)
	(&Workspace{plan: plan}).DopplerFilterBlock(p, out, raw, rangeGain, blk, 1)
	return out
}

// DopplerFilterBlock is the per-processor kernel of task 0: the Doppler
// filter over range block blk, written into dst (blk.Size() x 2J x N,
// radar.StaggeredOrder, every element overwritten). raw may be the full
// K-range cube or a block-local slab of blk.Size() ranges; rangeGain is
// indexed by global range cell. threads > 1 spreads the block's range
// cells over that many threads; results are bit-identical for any count.
func (w *Workspace) DopplerFilterBlock(p radar.Params, dst, raw *cube.Cube, rangeGain []float64, blk cube.Block, threads int) {
	if raw.Axes != radar.RawOrder {
		panic(fmt.Sprintf("stap: DopplerFilterBlock wants %v, got %v", radar.RawOrder, raw.Axes))
	}
	if raw.Dim[0] != p.K && raw.Dim[0] != blk.Size() {
		panic(fmt.Sprintf("stap: DopplerFilterBlock raw dim0 %d, want %d or %d", raw.Dim[0], p.K, blk.Size()))
	}
	if dst.Axes != radar.StaggeredOrder || dst.Dim != [3]int{blk.Size(), 2 * p.J, p.N} {
		panic(fmt.Sprintf("stap: DopplerFilterBlock output %v %v, want [%d %d %d]", dst.Axes, dst.Dim, blk.Size(), 2*p.J, p.N))
	}
	if rangeGain != nil && len(rangeGain) != p.K {
		panic("stap: rangeGain length mismatch")
	}
	inOff := 0
	if raw.Dim[0] != p.K {
		inOff = blk.Lo
	}
	if threaded(blk.Size(), threads) {
		w.filterThreaded(p, dst, raw, rangeGain, blk, inOff, threads)
		return
	}
	w.filterRanges(p, raw, rangeGain, dst, blk.Lo, blk.Hi, inOff, blk.Lo)
}

// filterThreaded is DopplerFilterBlock's threads > 1 path (see threaded).
func (w *Workspace) filterThreaded(p radar.Params, dst, raw *cube.Cube, rangeGain []float64, blk cube.Block, inOff, threads int) {
	w.forThreads(blk.Size(), threads, func(tw *Workspace, lo, hi int) {
		tw.filterRanges(p, raw, rangeGain, dst, blk.Lo+lo, blk.Lo+hi, inOff, blk.Lo)
	})
}
