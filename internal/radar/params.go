// Package radar defines the STAP problem parameters, the phased-array
// model, and a synthetic CPI generator standing in for the RTMCARM flight
// data (see DESIGN.md, substitution table). The generator produces the
// same 3-D coherent-processing-interval data cubes the paper's pipeline
// ingests: K range cells x J channels x N pulses of complex baseband
// samples containing targets, a zero-centered ground-clutter ridge, and
// receiver noise.
package radar

import (
	"fmt"

	"pstap/internal/cube"
	"pstap/internal/fft"
)

// Params collects every size and algorithm constant of the PRI-staggered
// post-Doppler STAP algorithm. Paper() returns the flight-experiment
// values; smaller configurations are used by tests.
type Params struct {
	K int // range cells
	J int // receive channels
	N int // pulses per CPI (= Doppler bins)
	M int // receive beams formed per transmit beam

	Neasy   int // easy Doppler bins (far from mainbeam clutter)
	Nhard   int // hard Doppler bins (near mainbeam clutter)
	Stagger int // PRI-stagger offset in pulses

	// RangeSegmentBoundaries splits the range extent into the independent
	// segments used by the hard weight computation (paper: 6 segments,
	// boundaries [0 75 150 225 300 375 512]).
	RangeSegmentBoundaries []int

	BeamConstraintWt float64 // k in the constrained least squares (Fig. 13)
	ForgettingFactor float64 // exponential forgetting for hard recursive QR

	Window fft.WindowKind // Doppler taper

	// EasyTrainingCPIs is how many preceding CPIs the easy task draws
	// training data from (paper: 3).
	EasyTrainingCPIs int
	// EasySamplesPerCPI is the number of training range samples taken from
	// each preceding CPI, spread over the first third of the range extent.
	EasySamplesPerCPI int
	// HardSamplesPerSegment is the number of fresh training rows the hard
	// recursive update consumes per range segment per CPI.
	HardSamplesPerSegment int

	// CFAR sliding-window parameters.
	CFARGuard int     // guard cells on each side of the test cell
	CFARRef   int     // reference (averaging) cells on each side
	CFARScale float64 // probability-of-false-alarm threshold factor
	// CFARKind selects the reference-level estimator (stap.CFARKind
	// values: 0 = cell averaging, the paper's detector; 1 = greatest-of,
	// 2 = smallest-of, 3 = ordered statistic).
	CFARKind    int
	WaveformLen int // transmit pulse replica length in range samples
}

// Paper returns the exact parameter set of Section 7 of the paper.
func Paper() Params {
	return Params{
		K: 512, J: 16, N: 128, M: 6,
		Neasy: 72, Nhard: 56, Stagger: 3,
		RangeSegmentBoundaries: []int{0, 75, 150, 225, 300, 375, 512},
		BeamConstraintWt:       0.5,
		ForgettingFactor:       0.6,
		Window:                 fft.Hanning,
		EasyTrainingCPIs:       3,
		EasySamplesPerCPI:      56,
		HardSamplesPerSegment:  85,
		CFARGuard:              4,
		CFARRef:                32,
		CFARScale:              12,
		WaveformLen:            16,
	}
}

// Medium returns a half-scale configuration for wall-clock benchmarks:
// large enough that kernel time dominates goroutine overheads, small
// enough for quick runs.
func Medium() Params {
	return Params{
		K: 256, J: 8, N: 64, M: 4,
		Neasy: 36, Nhard: 28, Stagger: 3,
		RangeSegmentBoundaries: []int{0, 40, 80, 120, 160, 200, 256},
		BeamConstraintWt:       0.5,
		ForgettingFactor:       0.6,
		Window:                 fft.Hanning,
		EasyTrainingCPIs:       3,
		EasySamplesPerCPI:      28,
		HardSamplesPerSegment:  40,
		CFARGuard:              2,
		CFARRef:                16,
		CFARScale:              12,
		WaveformLen:            8,
	}
}

// Small returns a reduced configuration that keeps every structural
// property of the paper's setup (PRI stagger, easy/hard split, six range
// segments scaled down, temporal training) while being fast enough for
// unit tests.
func Small() Params {
	return Params{
		K: 64, J: 4, N: 16, M: 2,
		Neasy: 10, Nhard: 6, Stagger: 3,
		RangeSegmentBoundaries: []int{0, 10, 20, 30, 40, 50, 64},
		BeamConstraintWt:       0.5,
		ForgettingFactor:       0.6,
		Window:                 fft.Hanning,
		EasyTrainingCPIs:       3,
		EasySamplesPerCPI:      12,
		HardSamplesPerSegment:  10,
		CFARGuard:              1,
		CFARRef:                4,
		CFARScale:              10,
		WaveformLen:            4,
	}
}

// Validate checks internal consistency of the parameter set.
func (p Params) Validate() error {
	if p.K <= 0 || p.J <= 0 || p.N <= 0 || p.M <= 0 {
		return fmt.Errorf("radar: non-positive dimension in %+v", p)
	}
	if p.Neasy+p.Nhard != p.N {
		return fmt.Errorf("radar: Neasy(%d)+Nhard(%d) != N(%d)", p.Neasy, p.Nhard, p.N)
	}
	if p.Nhard%2 != 0 {
		return fmt.Errorf("radar: Nhard(%d) must be even (split across spectrum edges)", p.Nhard)
	}
	if p.Stagger <= 0 || p.Stagger >= p.N {
		return fmt.Errorf("radar: stagger %d out of range", p.Stagger)
	}
	b := p.RangeSegmentBoundaries
	if len(b) < 2 || b[0] != 0 || b[len(b)-1] != p.K {
		return fmt.Errorf("radar: segment boundaries %v must span [0,%d]", b, p.K)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			return fmt.Errorf("radar: segment boundaries %v not increasing", b)
		}
	}
	if p.EasyTrainingCPIs <= 0 || p.EasySamplesPerCPI <= 0 {
		return fmt.Errorf("radar: easy training config invalid")
	}
	if p.EasyTrainingCPIs*p.EasySamplesPerCPI < p.J {
		return fmt.Errorf("radar: easy training samples %d < J=%d (rank deficient)",
			p.EasyTrainingCPIs*p.EasySamplesPerCPI, p.J)
	}
	if p.HardSamplesPerSegment <= 0 {
		return fmt.Errorf("radar: hard training config invalid")
	}
	if p.WaveformLen <= 0 || p.WaveformLen > p.K {
		return fmt.Errorf("radar: waveform length %d out of range", p.WaveformLen)
	}
	if p.CFARGuard < 0 || p.CFARRef <= 0 || p.CFARScale <= 0 {
		return fmt.Errorf("radar: CFAR config invalid")
	}
	return nil
}

// NumSegments returns the hard range-segment count.
func (p Params) NumSegments() int { return len(p.RangeSegmentBoundaries) - 1 }

// Segment returns the range interval [lo, hi) of segment s.
func (p Params) Segment(s int) (lo, hi int) {
	return p.RangeSegmentBoundaries[s], p.RangeSegmentBoundaries[s+1]
}

// SegmentOfRange returns which hard segment owns range cell r.
func (p Params) SegmentOfRange(r int) int {
	for s := 0; s < p.NumSegments(); s++ {
		if lo, hi := p.Segment(s); r >= lo && r < hi {
			return s
		}
	}
	return -1
}

// IsHardBin reports whether Doppler bin d (0-based, DC at 0) is a hard bin.
// Hard bins are the Nhard bins nearest mainbeam clutter at zero Doppler,
// i.e. the first Nhard/2 and last Nhard/2 bins of the spectrum, matching
// the MATLAB indexing (1..numHardDop/2 and N-numHardDop/2+1..N).
func (p Params) IsHardBin(d int) bool {
	return d < p.Nhard/2 || d >= p.N-p.Nhard/2
}

// EasyBins returns the ascending list of easy Doppler bin indices.
func (p Params) EasyBins() []int {
	bins := make([]int, 0, p.Neasy)
	for d := 0; d < p.N; d++ {
		if !p.IsHardBin(d) {
			bins = append(bins, d)
		}
	}
	return bins
}

// HardBins returns the ascending list of hard Doppler bin indices.
func (p Params) HardBins() []int {
	bins := make([]int, 0, p.Nhard)
	for d := 0; d < p.N; d++ {
		if p.IsHardBin(d) {
			bins = append(bins, d)
		}
	}
	return bins
}

// RawOrder is the storage order of a raw CPI cube: range-major with pulses
// unit stride (the corner-turned layout the RTMCARM interface boards
// produce to speed Doppler processing).
var RawOrder = cube.Order{cube.Range, cube.Channel, cube.Pulse}

// CheckCPIs reports the first cube of a job that is not a well-formed raw
// CPI for these parameters (RawOrder, K x J x N, Data holding every
// sample) — the check a cube from a client, a recording or a library
// caller passes before any of it reaches a kernel.
func (p Params) CheckCPIs(cpis []*cube.Cube) error {
	want := [3]int{p.K, p.J, p.N}
	for i, c := range cpis {
		if err := c.CheckShape(RawOrder, want); err != nil {
			return fmt.Errorf("CPI %d: %w", i, err)
		}
	}
	return nil
}

// StaggeredOrder is the Doppler-filter output order: K x 2J x N.
var StaggeredOrder = cube.Order{cube.Range, cube.Channel, cube.Doppler}

// BeamformInOrder is the layout beamforming wants: Doppler-major with
// channels unit stride (N x K x 2J after the pre-send reorganization).
var BeamformInOrder = cube.Order{cube.Doppler, cube.Range, cube.Channel}

// BeamOrder is the beamformed/pulse-compressed order: N x M x K.
var BeamOrder = cube.Order{cube.Doppler, cube.Beam, cube.Range}
