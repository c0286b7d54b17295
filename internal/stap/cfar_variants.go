package stap

import (
	"fmt"
	"sort"

	"pstap/internal/cube"
	"pstap/internal/radar"
)

// CFARKind selects the reference-level estimator of the sliding-window
// detector. The paper's system uses cell averaging (CA); the other
// estimators are the standard robust variants a production system offers:
// GO guards against clutter edges, SO preserves sensitivity next to
// closely-spaced targets, OS tolerates interfering targets in the
// reference window. Set radar.Params.CFARKind to run the whole chain
// (serial and pipeline) with a given estimator.
type CFARKind int

const (
	// CACFAR averages both reference windows (the paper's detector).
	CACFAR CFARKind = iota
	// GOCFAR takes the greater of the two window means.
	GOCFAR
	// SOCFAR takes the smaller of the two window means.
	SOCFAR
	// OSCFAR uses the k-th ordered statistic of the combined window, with
	// k = 3/4 of the available reference cells.
	OSCFAR
)

// String names the estimator.
func (k CFARKind) String() string {
	switch k {
	case CACFAR:
		return "CA"
	case GOCFAR:
		return "GO"
	case SOCFAR:
		return "SO"
	case OSCFAR:
		return "OS"
	}
	return fmt.Sprintf("CFARKind(%d)", int(k))
}

// refLevel computes the reference level for the test cell t under the
// selected estimator; ok is false when no reference cells are available.
// vec is the power row, prefix its prefix-sum array, g/ref the guard and
// reference window sizes, osBuf a reusable scratch slice for OS.
func refLevel(kind CFARKind, vec []float64, prefix []float64, t, g, ref int, osBuf *[]float64) (float64, bool) {
	window := func(a, b int) (float64, int) { // [a,b) clipped
		if a < 0 {
			a = 0
		}
		if b > len(vec) {
			b = len(vec)
		}
		if a >= b {
			return 0, 0
		}
		return prefix[b] - prefix[a], b - a
	}
	left, nl := window(t-g-ref, t-g)
	right, nr := window(t+g+1, t+g+1+ref)
	if nl+nr == 0 {
		return 0, false
	}
	switch kind {
	case CACFAR:
		return (left + right) / float64(nl+nr), true
	case GOCFAR:
		level := meanOrZero(left, nl)
		if r := meanOrZero(right, nr); r > level {
			level = r
		}
		return level, true
	case SOCFAR:
		switch {
		case nl == 0:
			return meanOrZero(right, nr), true
		case nr == 0:
			return meanOrZero(left, nl), true
		default:
			level := meanOrZero(left, nl)
			if r := meanOrZero(right, nr); r < level {
				level = r
			}
			return level, true
		}
	case OSCFAR:
		buf := (*osBuf)[:0]
		lo, hi := t-g-ref, t-g
		if lo < 0 {
			lo = 0
		}
		for i := lo; i < hi && i < len(vec); i++ {
			buf = append(buf, vec[i])
		}
		lo, hi = t+g+1, t+g+1+ref
		if hi > len(vec) {
			hi = len(vec)
		}
		for i := lo; i < hi; i++ {
			if i >= 0 {
				buf = append(buf, vec[i])
			}
		}
		sort.Float64s(buf)
		k := (3 * len(buf)) / 4
		if k >= len(buf) {
			k = len(buf) - 1
		}
		*osBuf = buf
		return buf[k], true
	}
	panic(fmt.Sprintf("stap: unknown CFAR kind %d", int(kind)))
}

func meanOrZero(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// CFARWith runs the sliding-window detector with the selected reference
// estimator over a power cube (N x M x K), like CFAR. CA reproduces
// CFAR's detections exactly.
func CFARWith(p radar.Params, power *cube.RealCube, kind CFARKind) []Detection {
	if power.Axes != radar.BeamOrder {
		panic(fmt.Sprintf("stap: CFARWith wants %v, got %v", radar.BeamOrder, power.Axes))
	}
	if power.Dim != [3]int{p.N, p.M, p.K} {
		panic(fmt.Sprintf("stap: CFARWith dims %v", power.Dim))
	}
	p.CFARKind = int(kind)
	var out []Detection
	new(Workspace).cfarScan(p, power, 0, 0, p.N, false, &out)
	SortDetections(out)
	return out
}
