package stap

import (
	"slices"
	"testing"

	"pstap/internal/cube"
	"pstap/internal/linalg"
	"pstap/internal/radar"
	"pstap/internal/redist"
)

// matrixTable returns a [segment][binIdx] table of empty matrices.
func matrixTable(segs, bins int) [][]*linalg.Matrix {
	t := make([][]*linalg.Matrix, segs)
	for seg := range t {
		t[seg] = newMatrices(bins)
	}
	return t
}

func sameWeights(a, b [][]*linalg.Matrix) bool {
	for seg := range a {
		for i := range a[seg] {
			if a[seg][i].Rows != b[seg][i].Rows || !slices.Equal(a[seg][i].Data, b[seg][i].Data) {
				return false
			}
		}
	}
	return true
}

// TestResetIsAFreshState checks the job-boundary contract the pipeline's
// weight workers rely on: a state that trained on one job and was Reset
// computes, on the next job, exactly what a new state does.
func TestResetIsAFreshState(t *testing.T) {
	p := radar.Small()
	sc := radar.DefaultScene(p)
	beamAz := sc.BeamAzimuths()
	easy, hard := NewEasyWeightState(p, beamAz), NewHardWeightState(p, beamAz)
	for i := 0; i < 5; i++ {
		d := DopplerFilter(p, sc.GenerateCPI(i), nil)
		easy.Observe(d)
		hard.Observe(d)
	}
	easy.Reset()
	hard.Reset()
	freshEasy, freshHard := NewEasyWeightState(p, beamAz), NewHardWeightState(p, beamAz)
	for i := 10; i < 14; i++ {
		d := DopplerFilter(p, sc.GenerateCPI(i), nil)
		for _, s := range []*EasyWeightState{easy, freshEasy} {
			s.Observe(d)
		}
		for _, s := range []*HardWeightState{hard, freshHard} {
			s.Observe(d)
		}
		if !sameWeights([][]*linalg.Matrix{easy.Compute()}, [][]*linalg.Matrix{freshEasy.Compute()}) {
			t.Fatalf("CPI %d: reset easy state differs from a fresh one", i)
		}
		if !sameWeights(hard.Compute(), freshHard.Compute()) {
			t.Fatalf("CPI %d: reset hard state differs from a fresh one", i)
		}
	}
}

// TestWarmKernelsAllocateNothing pins the zero-allocation contract of the
// per-CPI forms a pipeline worker calls — weight training into owned
// output, the Doppler block, row extraction, pack and assemble,
// beamforming, pulse compression and CFAR into a reused slice — once the
// workspace, the states and the destinations have seen one CPI's shapes.
func TestWarmKernelsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are the race runtime's")
	}
	p := radar.Small()
	sc := radar.DefaultScene(p)
	beamAz := sc.BeamAzimuths()
	full := cube.Block{Lo: 0, Hi: p.K}
	blk := cube.Block{Lo: 16, Hi: 48}
	raw := sc.GenerateCPI(0)
	var ws Workspace

	stag := cube.New(radar.StaggeredOrder, blk.Size(), 2*p.J, p.N)
	whole := DopplerFilter(p, raw, nil)
	easyBins, hardBins := p.EasyBins(), p.HardBins()
	easyRows, hardRows := newMatrices(len(easyBins)), matrixTable(p.NumSegments(), len(hardBins))
	easy, hard := NewEasyWeightState(p, beamAz), NewHardWeightState(p, beamAz)
	easyOut, hardOut := newMatrices(len(easyBins)), matrixTable(p.NumSegments(), len(hardBins))
	ws.ExtractEasyRows(easyRows, p, whole, full, easyBins)
	ws.ExtractHardRows(hardRows, p, whole, full, hardBins)

	piece := cube.New(radar.BeamformInOrder, len(hardBins), blk.Size(), 2*p.J)
	pieces := []*cube.Cube{
		cube.New(radar.BeamformInOrder, len(hardBins), blk.Lo, 2*p.J),
		piece,
		cube.New(radar.BeamformInOrder, len(hardBins), p.K-blk.Hi, 2*p.J),
	}
	blocks := []cube.Block{{Lo: 0, Hi: blk.Lo}, blk, {Lo: blk.Hi, Hi: p.K}}
	hardSlab := cube.New(radar.BeamformInOrder, len(hardBins), p.K, 2*p.J)
	easySlab := cube.New(radar.BeamformInOrder, len(easyBins), p.K, 2*p.J)
	steer := SteeringWeights(p, beamAz)
	beams := cube.New(radar.BeamOrder, p.N, p.M, p.K)
	hardBeams := cube.New(radar.BeamOrder, len(hardBins), p.M, p.K)
	easyBeams := cube.New(radar.BeamOrder, len(easyBins), p.M, p.K)
	mf := NewMatchedFilter(p.K, sc.Chirp())
	power := cube.NewReal(radar.BeamOrder, p.N, p.M, p.K)
	var dets []Detection

	for _, c := range []struct {
		name string
		f    func()
	}{
		{"DopplerFilterBlock", func() { ws.DopplerFilterBlock(p, stag, raw, nil, blk, 1) }},
		{"ExtractEasyRows", func() { ws.ExtractEasyRows(easyRows, p, whole, full, easyBins) }},
		{"ExtractHardRows", func() { ws.ExtractHardRows(hardRows, p, whole, full, hardBins) }},
		{"EasyWeightState.ObserveRows+ComputeInto", func() { easy.ObserveRows(easyRows); easy.ComputeInto(easyOut) }},
		{"HardWeightState.ObserveRows+ComputeInto", func() { hard.ObserveRows(hardRows); hard.ComputeInto(hardOut) }},
		{"EasyWeightState.Observe", func() { easy.Observe(whole) }},
		{"HardWeightState.Observe", func() { hard.Observe(whole) }},
		{"PackForBeamformInto", func() { redist.PackForBeamformInto(piece, p, stag, blk, hardBins, 2*p.J) }},
		{"AssembleBeamformInputInto", func() { redist.AssembleBeamformInputInto(hardSlab, p, pieces, blocks, 2*p.J) }},
		{"BeamformEasySlab", func() { ws.BeamformEasySlab(p, easySlab, steer.Easy, easyBeams, 1) }},
		{"BeamformHardSlab", func() { ws.BeamformHardSlab(p, hardSlab, steer.Hard, hardBeams, 1) }},
		{"PulseCompressRows", func() { ws.PulseCompressRows(p, beams, mf, power, 0, p.N, 1) }},
		{"CFARRows", func() { dets = dets[:0]; ws.CFARRows(p, power, 0, p.N, false, &dets, 1) }},
	} {
		// Warm: size every buffer and, for the easy state, fill its history.
		for i := 0; i < p.EasyTrainingCPIs; i++ {
			c.f()
		}
		if allocs := testing.AllocsPerRun(10, c.f); allocs != 0 {
			t.Errorf("%s allocates %g times per call once warm", c.name, allocs)
		}
	}
}
