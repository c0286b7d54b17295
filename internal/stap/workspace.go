package stap

import (
	"pstap/internal/fft"
	"pstap/internal/linalg"
	"pstap/internal/par"
	"pstap/internal/radar"
)

// Workspace is one worker's scratch memory for the per-CPI kernels: the
// Doppler taper and FFT plan, the pulse-compression FFT line, the
// beamformer's gathered block, weight transpose and product, the CFAR
// prefix sums and ordered-statistic window, and the training-cell list of the row extraction. Every buffer
// is sized on first use and reused afterwards, so the Workspace methods —
// the forms a pipeline worker calls every CPI, writing into buffers the
// caller owns — allocate nothing once warm. The package-level kernels
// (DopplerFilterBlock, BeamformEasySlab, PulseCompressRows, CFARRows,
// ExtractEasyRows, …) are the same methods on a fresh Workspace, so each
// kernel has one implementation.
//
// The zero value is ready to use. A Workspace must not be used by two
// calls at once; a threaded call (threads > 1) hands each extra thread a
// Workspace of its own, kept in this one for the next call.
type Workspace struct {
	plan      *fft.Plan // Doppler FFT plan (length N)
	taper     []float64 // Doppler window of length N-stagger
	taperKind fft.WindowKind
	line      []complex128 // one pulse-compression FFT line (length K)

	x, y, wh linalg.Matrix // beamforming: gathered channels, product, weights^H

	prefix []float64   // CFAR prefix sums of one power row
	osBuf  []float64   // CFAR ordered-statistic window
	dets   []Detection // a thread's CFAR detections (threaded CFARRows)

	cells []int // training range cells inside a slab

	threads []*Workspace // per-thread workspaces of the threaded kernels
}

// lineBuf returns the FFT line buffer at length n.
func (w *Workspace) lineBuf(n int) []complex128 {
	if cap(w.line) < n {
		w.line = make([]complex128, n)
	}
	return w.line[:n]
}

// doppler returns the Doppler FFT plan and taper for p, building them on
// the first call (and again only if p's N, stagger or window changes).
func (w *Workspace) doppler(p radar.Params) (*fft.Plan, []float64) {
	if w.plan == nil || w.plan.Len() != p.N {
		w.plan = fft.MustCachedPlan(p.N)
	}
	if n := p.N - p.Stagger; w.taper == nil || len(w.taper) != n || w.taperKind != p.Window {
		w.taper, w.taperKind = fft.Window(p.Window, n), p.Window
	}
	return w.plan, w.taper
}

// A kernel's threads argument lets a pipeline worker spread its share of
// each data-parallel step across a fixed number of threads, modeling the
// three i860 processors per Paragon compute node (the multi-threading
// optimization the paper's conclusion plans). Every kernel partitions its
// iterations with disjoint outputs and preserves the per-iteration
// operation order, so results are bit-identical to the single-threaded
// run for any thread count.

// threaded reports whether a kernel over n iterations spreads over threads
// (forThreads) rather than running inline. Each kernel's threaded path is
// a method of its own: forThreads' closure escapes to the threads'
// goroutines, and whatever it captures moves to the heap on entry to the
// function that builds it, so the inline path must not be that function.
func threaded(n, threads int) bool { return threads > 1 && n > 1 }

// forThreads runs f over min(threads, n) contiguous blocks of [0, n) — the
// same static partition as par.ForBlocks — each on its own goroutine with
// one of w's per-thread workspaces. Callers check threaded first.
func (w *Workspace) forThreads(n, threads int, f func(tw *Workspace, lo, hi int)) {
	threads = min(threads, n)
	for len(w.threads) < threads {
		w.threads = append(w.threads, new(Workspace))
	}
	base, rem := n/threads, n%threads
	par.For(threads, threads, func(t int) {
		lo := t*base + min(t, rem)
		hi := lo + base
		if t < rem {
			hi++
		}
		f(w.threads[t], lo, hi)
	})
}
