package pipeline

import (
	"sync"
	"testing"

	"pstap/internal/cube"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

// runSerialStride produces the reference reports for a pipeline that sees
// CPIs offset, offset+stride, ... — it trains on its own subsequence.
func runSerialStride(sc *radar.Scene, n, offset, stride int) [][]stap.Detection {
	pr := stap.NewProcessor(sc)
	var out [][]stap.Detection
	for i := offset; i < n; i += stride {
		out = append(out, pr.Process(sc.GenerateCPI(i)).Detections)
	}
	return out
}

// TestReplicatedMatchesPerReplicaSerial runs the paper's "multiple
// pipelines" by composition: two independent pipelines run at once, each
// fed every other CPI through its RawSource, and each must match the
// serial reference of its own subsequence.
func TestReplicatedMatchesPerReplicaSerial(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	n, reps := 10, 2
	results := make([]*Result, reps)
	errs := make([]error, reps)
	var wg sync.WaitGroup
	for r := 0; r < reps; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = Run(Config{
				Scene: sc, Assign: NewAssignment(1, 1, 1, 1, 1, 1, 1),
				NumCPIs: n / reps, Warmup: 1, Cooldown: 1,
				RawSource: func(i int) *cube.Cube { return sc.GenerateCPI(r + i*reps) },
			})
		}(r)
	}
	wg.Wait()
	for r := 0; r < reps; r++ {
		if errs[r] != nil {
			t.Fatal(errs[r])
		}
		want := runSerialStride(sc, n, r, reps)
		for k, dets := range want {
			if got := results[r].Detections[k]; !sameDetections(got, dets) {
				t.Errorf("pipeline %d local CPI %d: %d dets vs serial %d", r, k, len(got), len(dets))
			}
		}
	}
}

// TestReplicatedSingleEqualsPlain: a RawSource that is the scene's own
// generator gives the detections of a run with no RawSource.
func TestReplicatedSingleEqualsPlain(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	cfg := Config{
		Scene: sc, Assign: NewAssignment(1, 1, 1, 1, 1, 1, 1),
		NumCPIs: 6, Warmup: 1, Cooldown: 1,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RawSource = sc.GenerateCPI
	sourced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Detections {
		if !sameDetections(plain.Detections[i], sourced.Detections[i]) {
			t.Fatalf("CPI %d differs between the default and an explicit source", i)
		}
	}
}

// TestCPIMapFeedsCorrectData: with a RawSource shifting by +3, the
// pipeline must produce the serial reports of CPIs 3, 4, 5, ...
func TestCPIMapFeedsCorrectData(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	pr := stap.NewProcessor(sc)
	var want [][]stap.Detection
	for i := 3; i < 8; i++ {
		want = append(want, pr.Process(sc.GenerateCPI(i)).Detections)
	}
	res, err := Run(Config{
		Scene: sc, Assign: NewAssignment(1, 1, 1, 1, 1, 1, 1),
		NumCPIs: 5, Warmup: 1, Cooldown: 1,
		RawSource: func(i int) *cube.Cube { return sc.GenerateCPI(i + 3) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if !sameDetections(res.Detections[k], want[k]) {
			t.Errorf("shifted CPI %d differs", k)
		}
	}
}
