package stap_test

// The flop model against the paper's Table 1. The published values live
// in internal/paperdata, which imports this package through
// internal/pipeline, so the comparison is an external test.

import (
	"math"
	"testing"

	"pstap/internal/paperdata"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

func TestFlopModelMatchesPaperTable1(t *testing.T) {
	got := stap.CountFlops(radar.Paper())
	p := paperdata.Table1
	want := stap.FlopCounts{
		Doppler:    p[pipeline.TaskDoppler],
		EasyWeight: p[pipeline.TaskEasyWeight],
		HardWeight: p[pipeline.TaskHardWeight],
		EasyBF:     p[pipeline.TaskEasyBF],
		HardBF:     p[pipeline.TaskHardBF],
		PulseComp:  p[pipeline.TaskPulseComp],
		CFAR:       p[pipeline.TaskCFAR],
	}
	// Exact: Doppler, both beamformers, pulse compression, CFAR.
	if got.Doppler != want.Doppler {
		t.Errorf("Doppler flops %d, want %d", got.Doppler, want.Doppler)
	}
	if got.EasyBF != want.EasyBF {
		t.Errorf("easy BF flops %d, want %d", got.EasyBF, want.EasyBF)
	}
	if got.HardBF != want.HardBF {
		t.Errorf("hard BF flops %d, want %d", got.HardBF, want.HardBF)
	}
	if got.PulseComp != want.PulseComp {
		t.Errorf("pulse compression flops %d, want %d", got.PulseComp, want.PulseComp)
	}
	if got.CFAR != want.CFAR {
		t.Errorf("CFAR flops %d, want %d", got.CFAR, want.CFAR)
	}
	// Weight tasks: within 2% (counting-convention differences documented
	// in EXPERIMENTS.md).
	relErr := func(a, b int64) float64 {
		return math.Abs(float64(a)-float64(b)) / float64(b)
	}
	if e := relErr(got.EasyWeight, want.EasyWeight); e > 0.02 {
		t.Errorf("easy weight flops %d vs paper %d (%.1f%%)", got.EasyWeight, want.EasyWeight, 100*e)
	}
	if e := relErr(got.HardWeight, want.HardWeight); e > 0.02 {
		t.Errorf("hard weight flops %d vs paper %d (%.1f%%)", got.HardWeight, want.HardWeight, 100*e)
	}
	if e := relErr(got.Total(), want.Total()); e > 0.02 {
		t.Errorf("total flops %d vs paper %d (%.1f%%)", got.Total(), want.Total(), 100*e)
	}
	// Ordering claims from the paper: hard weight most demanding, Doppler
	// second.
	pt := got.PerTask()
	for i, v := range pt {
		if i != 2 && v >= pt[2] {
			t.Errorf("task %s (%d) >= hard weight (%d)", stap.TaskNames[i], v, pt[2])
		}
		if i != 0 && i != 2 && v >= pt[0] {
			t.Errorf("task %s (%d) >= Doppler (%d)", stap.TaskNames[i], v, pt[0])
		}
	}
}
