package stap

import (
	"fmt"

	"pstap/internal/cube"
	"pstap/internal/linalg"
	"pstap/internal/radar"
)

// BeamformEasySlab applies easy weights to a bin-local Doppler slab. slab
// is nb x K x C (radar.BeamformInOrder, C >= J; only the first J channels
// — the unstaggered spectrum — are used); ws[i] is the J x M weight matrix
// of slab row i; out is nb x M x K (radar.BeamOrder). This is the
// per-processor kernel of the easy beamforming task: nb matrix multiplies
// of (M x J)(J x K). It is Workspace.BeamformEasySlab on a fresh
// workspace, single-threaded.
func BeamformEasySlab(p radar.Params, slab *cube.Cube, ws []*linalg.Matrix, out *cube.Cube) {
	new(Workspace).BeamformEasySlab(p, slab, ws, out, 1)
}

// BeamformEasySlab is the per-processor kernel of the easy beamforming
// task (see the package-level BeamformEasySlab), writing every element of
// out; threads > 1 spreads the slab's rows over that many threads.
func (w *Workspace) BeamformEasySlab(p radar.Params, slab *cube.Cube, ws []*linalg.Matrix, out *cube.Cube, threads int) {
	nb := slab.Dim[0]
	if len(ws) != nb || out.Dim[0] != nb {
		panic(fmt.Sprintf("stap: easy slab %d bins, %d weights, %d out rows", nb, len(ws), out.Dim[0]))
	}
	if slab.Dim[1] != p.K || slab.Dim[2] < p.J || out.Dim[1] != p.M || out.Dim[2] != p.K {
		panic(fmt.Sprintf("stap: easy slab dims %v out %v", slab.Dim, out.Dim))
	}
	if threaded(nb, threads) {
		w.beamformEasyThreaded(p, slab, ws, out, threads)
		return
	}
	w.beamformEasyRows(p, slab, ws, out, 0, nb)
}

// beamformEasyThreaded is BeamformEasySlab's threads > 1 path (see
// threaded).
func (w *Workspace) beamformEasyThreaded(p radar.Params, slab *cube.Cube, ws []*linalg.Matrix, out *cube.Cube, threads int) {
	w.forThreads(slab.Dim[0], threads, func(tw *Workspace, lo, hi int) { tw.beamformEasyRows(p, slab, ws, out, lo, hi) })
}

// beamformEasyRows processes slab rows [lo, hi).
func (w *Workspace) beamformEasyRows(p radar.Params, slab *cube.Cube, ws []*linalg.Matrix, out *cube.Cube, lo, hi int) {
	x := w.x.Reshape(p.J, p.K)
	y := w.y.Reshape(p.M, p.K)
	for row := lo; row < hi; row++ {
		for r := 0; r < p.K; r++ {
			v := slab.Vec(row, r)
			for j := 0; j < p.J; j++ {
				x.Set(j, r, v[j])
			}
		}
		linalg.MulInto(y, linalg.HInto(&w.wh, ws[row]), x)
		for m := 0; m < p.M; m++ {
			copy(out.Vec(row, m), y.Row(m))
		}
	}
}

// BeamformHardSlab applies hard weights to a bin-local Doppler slab. slab
// is nb x K x 2J; ws[seg][i] is the 2J x M weight matrix of segment seg
// for slab row i; out is nb x M x K. Each row performs one matrix multiply
// per range segment (the paper's 6*Nhard multiplications). It is
// Workspace.BeamformHardSlab on a fresh workspace, single-threaded.
func BeamformHardSlab(p radar.Params, slab *cube.Cube, ws [][]*linalg.Matrix, out *cube.Cube) {
	new(Workspace).BeamformHardSlab(p, slab, ws, out, 1)
}

// BeamformHardSlab is the per-processor kernel of the hard beamforming
// task (see the package-level BeamformHardSlab), writing every element of
// out; threads > 1 spreads the slab's rows over that many threads.
func (w *Workspace) BeamformHardSlab(p radar.Params, slab *cube.Cube, ws [][]*linalg.Matrix, out *cube.Cube, threads int) {
	nb := slab.Dim[0]
	if len(ws) != p.NumSegments() || out.Dim[0] != nb {
		panic(fmt.Sprintf("stap: hard slab %d segments, out rows %d for %d bins", len(ws), out.Dim[0], nb))
	}
	if slab.Dim[1] != p.K || slab.Dim[2] != 2*p.J || out.Dim[1] != p.M || out.Dim[2] != p.K {
		panic(fmt.Sprintf("stap: hard slab dims %v out %v", slab.Dim, out.Dim))
	}
	for seg := 0; seg < p.NumSegments(); seg++ {
		if len(ws[seg]) != nb {
			panic("stap: hard weight count mismatch")
		}
	}
	if threaded(nb, threads) {
		w.beamformHardThreaded(p, slab, ws, out, threads)
		return
	}
	w.beamformHardRows(p, slab, ws, out, 0, nb)
}

// beamformHardThreaded is BeamformHardSlab's threads > 1 path (see
// threaded).
func (w *Workspace) beamformHardThreaded(p radar.Params, slab *cube.Cube, ws [][]*linalg.Matrix, out *cube.Cube, threads int) {
	w.forThreads(slab.Dim[0], threads, func(tw *Workspace, lo, hi int) { tw.beamformHardRows(p, slab, ws, out, lo, hi) })
}

// beamformHardRows processes slab rows [rowLo, rowHi).
func (w *Workspace) beamformHardRows(p radar.Params, slab *cube.Cube, ws [][]*linalg.Matrix, out *cube.Cube, rowLo, rowHi int) {
	for row := rowLo; row < rowHi; row++ {
		for seg := 0; seg < p.NumSegments(); seg++ {
			lo, hi := p.Segment(seg)
			wh := linalg.HInto(&w.wh, ws[seg][row]) // M x 2J
			x := w.x.Reshape(2*p.J, hi-lo)
			for r := lo; r < hi; r++ {
				v := slab.Vec(row, r)
				for j := 0; j < 2*p.J; j++ {
					x.Set(j, r-lo, v[j])
				}
			}
			y := w.y.Reshape(p.M, hi-lo)
			linalg.MulInto(y, wh, x)
			for m := 0; m < p.M; m++ {
				copy(out.Vec(row, m)[lo:hi], y.Row(m))
			}
		}
	}
}

// Beamform applies the weight vectors to a Doppler-filtered CPI and
// returns the beamformed cube (N x M x K, radar.BeamOrder). The input must
// be in radar.BeamformInOrder (N x K x 2J): the layout produced by the
// inter-task reorganization between the Doppler filter and beamforming
// tasks, with channels unit stride ("beamforming performs optimally when
// the data is unit stride in channel").
//
// Easy bins use only the first J channels with a single J x M weight
// matrix per bin; hard bins use all 2J channels with a separate 2J x M
// weight matrix per range segment. The implementation routes through the
// same slab kernels the parallel pipeline uses, so serial and parallel
// results agree bitwise.
func Beamform(p radar.Params, doppler *cube.Cube, w *Weights) *cube.Cube {
	if doppler.Axes != radar.BeamformInOrder {
		panic(fmt.Sprintf("stap: Beamform wants %v, got %v", radar.BeamformInOrder, doppler.Axes))
	}
	if doppler.Dim != [3]int{p.N, p.K, 2 * p.J} {
		panic(fmt.Sprintf("stap: Beamform dims %v", doppler.Dim))
	}
	if len(w.Easy) != p.Neasy || len(w.Hard) != p.NumSegments() {
		panic("stap: weight shape mismatch")
	}
	out := cube.New(radar.BeamOrder, p.N, p.M, p.K)

	easyBins := p.EasyBins()
	easySlab := gatherBins(doppler, easyBins, p.J)
	easyOut := cube.New(radar.BeamOrder, len(easyBins), p.M, p.K)
	BeamformEasySlab(p, easySlab, w.Easy, easyOut)
	for i, d := range easyBins {
		for m := 0; m < p.M; m++ {
			copy(out.Vec(d, m), easyOut.Vec(i, m))
		}
	}

	hardBins := p.HardBins()
	hardSlab := gatherBins(doppler, hardBins, 2*p.J)
	hardOut := cube.New(radar.BeamOrder, len(hardBins), p.M, p.K)
	BeamformHardSlab(p, hardSlab, w.Hard, hardOut)
	for i, d := range hardBins {
		for m := 0; m < p.M; m++ {
			copy(out.Vec(d, m), hardOut.Vec(i, m))
		}
	}
	return out
}

// gatherBins copies the listed Doppler rows (first `channels` channels) of
// a BeamformInOrder cube into a bin-local slab.
func gatherBins(doppler *cube.Cube, bins []int, channels int) *cube.Cube {
	out := cube.New(radar.BeamformInOrder, len(bins), doppler.Dim[1], channels)
	for i, d := range bins {
		for r := 0; r < doppler.Dim[1]; r++ {
			copy(out.Vec(i, r), doppler.Vec(d, r)[:channels])
		}
	}
	return out
}
