package stap

import (
	"cmp"
	"fmt"
	"slices"

	"pstap/internal/cube"
	"pstap/internal/radar"
)

// Detection is one entry of the pipeline's output report: a threshold
// crossing at a specific range cell, Doppler bin and look direction.
type Detection struct {
	Range      int
	DopplerBin int
	Beam       int
	Power      float64
	Threshold  float64
}

// String formats a detection for reports.
func (d Detection) String() string {
	return fmt.Sprintf("r=%d d=%d b=%d pow=%.3g thr=%.3g", d.Range, d.DopplerBin, d.Beam, d.Power, d.Threshold)
}

// CFAR runs sliding-window cell-averaging constant-false-alarm-rate
// detection over the power cube (N x M x K): for each test cell the mean
// of CFARRef reference cells on each side (skipping CFARGuard guard cells)
// is scaled by CFARScale and compared with the cell under test. Cells too
// close to the range edges to have any reference cells are skipped.
// Detections are returned sorted by (Doppler bin, beam, range).
func CFAR(p radar.Params, power *cube.RealCube) []Detection {
	if power.Axes != radar.BeamOrder {
		panic(fmt.Sprintf("stap: CFAR wants %v, got %v", radar.BeamOrder, power.Axes))
	}
	if power.Dim != [3]int{p.N, p.M, p.K} {
		panic(fmt.Sprintf("stap: CFAR dims %v", power.Dim))
	}
	var out []Detection
	CFARRows(p, power, 0, p.N, false, &out)
	SortDetections(out)
	return out
}

// SortDetections orders detections by (Doppler bin, beam, range), the
// order every CFAR report is returned in. The key is unique within a CPI,
// so the order is total.
func SortDetections(dets []Detection) {
	slices.SortFunc(dets, func(a, b Detection) int {
		return cmp.Or(cmp.Compare(a.DopplerBin, b.DopplerBin), cmp.Compare(a.Beam, b.Beam), cmp.Compare(a.Range, b.Range))
	})
}

// CFARRows scans Doppler bins [lo, hi). When local is true the cube is a
// bin-local slab whose row 0 corresponds to bin lo; reported DopplerBin
// values are the global bins. Results are appended to *out in scan order
// (unsorted). It is Workspace.CFARRows on a fresh workspace,
// single-threaded.
func CFARRows(p radar.Params, power *cube.RealCube, lo, hi int, local bool, out *[]Detection) {
	new(Workspace).CFARRows(p, power, lo, hi, local, out, 1)
}

// CFARRows is the per-processor kernel of task 6 (see the package-level
// CFARRows); a caller that passes out = &dets with dets[:0] of a slice it
// keeps reuses its storage. threads > 1 spreads the rows over that many
// threads, concatenating their detections in row order, which preserves
// the single-threaded scan order.
func (w *Workspace) CFARRows(p radar.Params, power *cube.RealCube, lo, hi int, local bool, out *[]Detection, threads int) {
	if threaded(hi-lo, threads) {
		w.cfarThreaded(p, power, lo, hi, local, out, threads)
		return
	}
	w.cfarScan(p, power, lo, lo, hi, local, out)
}

// cfarThreaded is CFARRows' threads > 1 path (see threaded).
func (w *Workspace) cfarThreaded(p radar.Params, power *cube.RealCube, lo, hi int, local bool, out *[]Detection, threads int) {
	w.forThreads(hi-lo, threads, func(tw *Workspace, a, b int) {
		tw.dets = tw.dets[:0]
		tw.cfarScan(p, power, lo, lo+a, lo+b, local, &tw.dets)
	})
	for _, tw := range w.threads[:min(threads, hi-lo)] {
		*out = append(*out, tw.dets...)
	}
}

// cfarScan scans bins [lo, hi); when local is true, the slab's row 0
// corresponds to bin `base`. The reference-level estimator is selected by
// p.CFARKind (cell averaging by default, the paper's detector).
func (w *Workspace) cfarScan(p radar.Params, power *cube.RealCube, base, lo, hi int, local bool, out *[]Detection) {
	g, ref, scale := p.CFARGuard, p.CFARRef, p.CFARScale
	kind := CFARKind(p.CFARKind)
	for d := lo; d < hi; d++ {
		row := d
		if local {
			row = d - base
		}
		for m := 0; m < p.M; m++ {
			vec := power.Vec(row, m)
			// Prefix sums make each window sum O(1).
			if cap(w.prefix) < len(vec)+1 {
				w.prefix = make([]float64, len(vec)+1)
			}
			prefix := w.prefix[:len(vec)+1]
			prefix[0] = 0
			for i, v := range vec {
				prefix[i+1] = prefix[i] + v
			}
			for t := 0; t < len(vec); t++ {
				level, ok := refLevel(kind, vec, prefix, t, g, ref, &w.osBuf)
				if !ok {
					continue
				}
				thr := scale * level
				if vec[t] > thr {
					*out = append(*out, Detection{
						Range: t, DopplerBin: d, Beam: m,
						Power: vec[t], Threshold: thr,
					})
				}
			}
		}
	}
}

// MatchesTarget reports whether detection det is consistent with target t:
// same Doppler bin within +-1 (straddle loss), same range within the
// replica length, any beam whose azimuth is nearest to the target's.
func MatchesTarget(p radar.Params, det Detection, t radar.Target, beamAz []float64) bool {
	db := t.DopplerBin(p.N)
	dd := det.DopplerBin - db
	if dd < 0 {
		dd = -dd
	}
	if dd > 1 && dd < p.N-1 {
		return false
	}
	dr := det.Range - t.Range
	if dr < 0 {
		dr = -dr
	}
	if dr > 1 {
		return false
	}
	// nearest beam
	best, bestDiff := -1, 0.0
	for b, az := range beamAz {
		diff := az - t.Azimuth
		if diff < 0 {
			diff = -diff
		}
		if best == -1 || diff < bestDiff {
			best, bestDiff = b, diff
		}
	}
	return det.Beam == best
}
