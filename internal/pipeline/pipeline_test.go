package pipeline

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pstap/internal/obs"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

// runSerial produces the reference detection reports for n CPIs.
func runSerial(sc *radar.Scene, n int) [][]stap.Detection {
	pr := stap.NewProcessor(sc)
	out := make([][]stap.Detection, n)
	for i := 0; i < n; i++ {
		out[i] = pr.Process(sc.GenerateCPI(i)).Detections
	}
	return out
}

func sameDetections(a, b []stap.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Range != b[i].Range || a[i].DopplerBin != b[i].DopplerBin || a[i].Beam != b[i].Beam {
			return false
		}
		if math.Abs(a[i].Power-b[i].Power) > 1e-9*(1+math.Abs(b[i].Power)) {
			return false
		}
	}
	return true
}

func TestPipelineMatchesSerialMinimal(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	n := 5
	want := runSerial(sc, n)
	res, err := Run(Config{
		Scene:   sc,
		Assign:  NewAssignment(1, 1, 1, 1, 1, 1, 1),
		NumCPIs: n,
		Warmup:  1, Cooldown: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !sameDetections(res.Detections[i], want[i]) {
			t.Errorf("CPI %d: pipeline %v != serial %v", i, res.Detections[i], want[i])
		}
	}
}

func TestPipelineMatchesSerialParallel(t *testing.T) {
	// Several node assignments, including uneven ones and counts that do
	// not divide the bin counts.
	sc := radar.DefaultScene(radar.Small())
	n := 6
	want := runSerial(sc, n)
	assigns := []Assignment{
		NewAssignment(2, 1, 2, 1, 1, 2, 1),
		NewAssignment(4, 2, 3, 2, 2, 3, 2),
		NewAssignment(3, 2, 2, 3, 3, 4, 3),
		NewAssignment(1, 3, 6, 5, 2, 1, 4),
	}
	for _, a := range assigns {
		res, err := Run(Config{Scene: sc, Assign: a, NumCPIs: n, Warmup: 1, Cooldown: 1})
		if err != nil {
			t.Fatalf("assign %v: %v", a, err)
		}
		for i := 0; i < n; i++ {
			if !sameDetections(res.Detections[i], want[i]) {
				t.Errorf("assign %v CPI %d: pipeline %d dets != serial %d dets",
					a, i, len(res.Detections[i]), len(want[i]))
			}
		}
	}
}

func TestPipelineMoreWorkersThanBins(t *testing.T) {
	// Worker counts exceeding the available bins/ranges must still work
	// (some workers simply own empty blocks).
	p := radar.Small()
	sc := radar.DefaultScene(p)
	n := 4
	want := runSerial(sc, n)
	res, err := Run(Config{
		Scene:   sc,
		Assign:  NewAssignment(2, p.Neasy+2, 2, p.Neasy+1, p.Nhard+3, 2, 2),
		NumCPIs: n,
		Warmup:  1, Cooldown: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !sameDetections(res.Detections[i], want[i]) {
			t.Errorf("CPI %d mismatch", i)
		}
	}
}

func TestPipelineThreadedMatchesSerial(t *testing.T) {
	// Multi-threaded workers (three threads, like the Paragon's three
	// i860s per node) must not change any output bit.
	sc := radar.DefaultScene(radar.Small())
	n := 5
	want := runSerial(sc, n)
	res, err := Run(Config{
		Scene:   sc,
		Assign:  NewAssignment(2, 1, 2, 1, 1, 2, 1),
		NumCPIs: n,
		Warmup:  1, Cooldown: 1,
		Threads: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !sameDetections(res.Detections[i], want[i]) {
			t.Errorf("CPI %d differs with threaded workers", i)
		}
	}
}

func TestPipelineStatsPopulated(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	res, err := Run(Config{
		Scene:   sc,
		Assign:  NewAssignment(2, 1, 2, 1, 1, 1, 1),
		NumCPIs: 8,
		Warmup:  2, Cooldown: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for ti, s := range res.Stats {
		if s.Comp <= 0 {
			t.Errorf("task %s: zero compute time", stap.TaskNames[ti])
		}
	}
	if res.Throughput <= 0 {
		t.Error("throughput not measured")
	}
	if res.Latency <= 0 {
		t.Error("latency not measured")
	}
	if res.BytesSent <= 0 || res.Messages <= 0 {
		t.Error("communication accounting empty")
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed missing")
	}
	if res.EquationThroughput() <= 0 {
		t.Error("equation throughput")
	}
	if res.EquationLatency() <= 0 {
		t.Error("equation latency")
	}
	// Measured latency includes input queueing up to the in-flight window
	// times the pipeline period; it must stay within that order of
	// magnitude of the equation value.
	if res.Latency > 200*res.EquationLatency() {
		t.Errorf("measured latency %v wildly exceeds equation bound %v", res.Latency, res.EquationLatency())
	}
}

func TestLatencyPercentiles(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	res, err := Run(Config{
		Scene: sc, Assign: NewAssignment(1, 1, 1, 1, 1, 1, 1),
		NumCPIs: 10, Warmup: 2, Cooldown: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Latencies) != 6 {
		t.Fatalf("window latencies %d, want 6", len(res.Latencies))
	}
	p50 := res.LatencyPercentile(0.5)
	p95 := res.LatencyPercentile(0.95)
	if p50 <= 0 || p95 < p50 {
		t.Errorf("p50 %v p95 %v", p50, p95)
	}
	if res.LatencyPercentile(0) > res.LatencyPercentile(1) {
		t.Error("quantiles not ordered")
	}
	empty := &Result{}
	if empty.LatencyPercentile(0.5) != 0 {
		t.Error("empty result percentile should be 0")
	}
}

func TestPipelineConfigValidation(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	cases := []Config{
		{Scene: nil, Assign: NewAssignment(1, 1, 1, 1, 1, 1, 1), NumCPIs: 3},
		{Scene: sc, Assign: NewAssignment(0, 1, 1, 1, 1, 1, 1), NumCPIs: 3},
		{Scene: sc, Assign: NewAssignment(1, 1, 1, 1, 1, 1, 1), NumCPIs: 0},
		{Scene: sc, Assign: NewAssignment(1, 1, 1, 1, 1, 1, 1), NumCPIs: 3, Warmup: 2, Cooldown: 1},
		// A caller's journal too small for the run would truncate Stats.
		{Scene: sc, Assign: NewAssignment(1, 1, 1, 1, 1, 1, 1), NumCPIs: 3, Obs: obs.New(obs.Config{
			Tasks: DefaultObsConfig(NewAssignment(1, 1, 1, 1, 1, 1, 1)).Tasks, RingSize: 3*7 - 1})},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestAssignmentHelpers(t *testing.T) {
	a := NewAssignment(32, 16, 112, 16, 28, 16, 16)
	if a.Total() != 236 {
		t.Errorf("case-1 total %d, want 236", a.Total())
	}
	if err := a.Validate(); err != nil {
		t.Error(err)
	}
	bad := a
	bad[3] = 0
	if bad.Validate() == nil {
		t.Error("zero task should fail validation")
	}
}

func TestPipelineDetectsTargets(t *testing.T) {
	// The distributed pipeline, like the serial chain, must find the
	// injected targets once trained.
	sc := radar.DefaultScene(radar.Small())
	n := 7
	res, err := Run(Config{
		Scene:   sc,
		Assign:  NewAssignment(2, 2, 2, 2, 2, 2, 2),
		NumCPIs: n,
		Warmup:  1, Cooldown: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Detections[n-1]
	for ti, tgt := range sc.Targets {
		found := false
		for _, det := range last {
			if stap.MatchesTarget(sc.Params, det, tgt, sc.BeamAzimuths()) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("target %d not detected by parallel pipeline", ti)
		}
	}
}

func TestPipelineRandomAssignmentsProperty(t *testing.T) {
	// Any valid assignment (random worker counts, including threads) must
	// reproduce the serial detections exactly.
	sc := radar.DefaultScene(radar.Small())
	n := 4
	want := runSerial(sc, n)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		var a Assignment
		for i := range a {
			a[i] = 1 + rng.Intn(5)
		}
		threads := 1 + rng.Intn(3)
		res, err := Run(Config{
			Scene: sc, Assign: a, NumCPIs: n,
			Warmup: 1, Cooldown: 1,
			Threads: threads,
			Window:  1 + rng.Intn(10),
		})
		if err != nil {
			t.Fatalf("assign %v: %v", a, err)
		}
		for i := 0; i < n; i++ {
			if !sameDetections(res.Detections[i], want[i]) {
				t.Fatalf("trial %d assign %v threads %d CPI %d differs", trial, a, threads, i)
			}
		}
	}
}

func TestPipelineSurvivesDegenerateScene(t *testing.T) {
	// An all-zero input stream (no noise, clutter, targets or jammers)
	// drives every weight solve degenerate; the states must fall back to
	// steering weights and the chain must complete with zero detections —
	// in both the serial reference and the pipeline.
	p := radar.Small()
	sc := &radar.Scene{Params: p, Seed: 1} // everything zero
	n := 4
	want := runSerial(sc, n)
	res, err := Run(Config{
		Scene: sc, Assign: NewAssignment(2, 1, 2, 1, 1, 1, 1),
		NumCPIs: n, Warmup: 1, Cooldown: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if len(want[i]) != 0 {
			t.Errorf("serial CPI %d produced %d detections from zero input", i, len(want[i]))
		}
		if len(res.Detections[i]) != 0 {
			t.Errorf("pipeline CPI %d produced %d detections from zero input", i, len(res.Detections[i]))
		}
	}
}

func TestPipelineNoiseOnlyFalseAlarmRate(t *testing.T) {
	// With pure noise, detections are CFAR false alarms; the rate must be
	// small (the threshold factor is set well above the noise floor).
	p := radar.Small()
	sc := &radar.Scene{Params: p, NoisePower: 1, Seed: 5}
	n := 6
	res, err := Run(Config{
		Scene: sc, Assign: NewAssignment(2, 1, 1, 1, 1, 1, 1),
		NumCPIs: n, Warmup: 1, Cooldown: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := p.N * p.M * p.K
	for i := 0; i < n; i++ {
		if fa := len(res.Detections[i]); float64(fa) > 0.005*float64(cells) {
			t.Errorf("CPI %d: %d false alarms over %d cells", i, fa, cells)
		}
	}
}

func TestPipelineThroughputScalesWithWorkers(t *testing.T) {
	// More workers on the bottleneck tasks should not make throughput
	// dramatically worse (it should generally improve; we assert a weak
	// monotonicity to keep the test robust on loaded CI machines). Each
	// run times a steady-state window of 400 CPIs, ~130 ms at Small on
	// 2 cores: a window of a few CPIs lasts under a millisecond, so timer
	// and scheduler noise decide it. Under -race a CPI costs ~20× more,
	// so 40 CPIs span ~300 ms. The runs alternate between the two
	// assignments, and each keeps the median of three.
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	window := 400
	if raceEnabled {
		window = 40
	}
	sc := radar.DefaultScene(radar.Small())
	run := func(a Assignment) float64 {
		res, err := Run(Config{Scene: sc, Assign: a, NumCPIs: window + 4, Warmup: 2, Cooldown: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	var r1, r4 []float64
	for range 3 {
		r1 = append(r1, run(NewAssignment(1, 1, 1, 1, 1, 1, 1)))
		r4 = append(r4, run(NewAssignment(4, 2, 4, 2, 2, 2, 2)))
	}
	slices.Sort(r1)
	slices.Sort(r4)
	t1, t4 := r1[1], r4[1]
	t.Logf("throughput 7 workers: %.1f CPI/s, 18 workers: %.1f CPI/s (medians of %.0f, %.0f)", t1, t4, r1, r4)
	if t4 < t1*0.5 {
		t.Errorf("throughput collapsed when adding workers: %.1f -> %.1f", t1, t4)
	}
}
