package pipeline

import (
	"slices"
	"testing"

	"pstap/internal/cube"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

// ringJobs is a stream of jobs of mixed lengths, 72 CPIs in all: long
// enough for every ring slot to be reused many times at the smallest
// windows, with a job reset every few CPIs (a reset restarts the weight
// state in place, which must leave no trace of the previous job).
var ringJobs = []int{1, 5, 2, 8, 3, 4, 1, 6, 7, 2, 9, 4, 5, 3, 12}

// serialJobs returns, per job of lengths, its cubes (consecutive CPIs of
// the scene) and the serial reference's reports for them, each job on a
// fresh stap.Processor.
func serialJobs(sc *radar.Scene, lengths []int) (jobs [][]*cube.Cube, want [][][]stap.Detection) {
	from := 0
	for _, n := range lengths {
		j := job(sc, from, n)
		pr := stap.NewProcessor(sc)
		var w [][]stap.Detection
		for _, raw := range j {
			w = append(w, pr.Process(raw).Detections)
		}
		jobs, want = append(jobs, j), append(want, w)
		from += n
	}
	return jobs, want
}

// TestRingDepthHoldsTheWindow drives in-process streams at in-flight
// windows 1 and 2 — where a ring one slot too shallow would hand a
// receiver a payload its sender is already rewriting — over 72 CPIs
// spanning 15 job resets, and requires every report to equal the serial
// reference bit for bit. Run under -race (as CI does), a ring shallower
// than window+1 is a reported data race, not just a wrong weight that
// might happen to cancel; dist's TestRingDepthSplitReplica covers the
// same through a split replica.
func TestRingDepthHoldsTheWindow(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	jobs, want := serialJobs(sc, ringJobs)
	for _, window := range []int{1, 2} {
		st, err := NewStream(StreamConfig{Scene: sc, Assign: NewAssignment(2, 1, 2, 1, 1, 2, 1), Window: window})
		if err != nil {
			t.Fatal(err)
		}
		for j, cpis := range jobs {
			got, err := st.ProcessJob(cpis)
			if err != nil {
				t.Fatalf("window %d job %d: %v", window, j, err)
			}
			for i := range want[j] {
				if !slices.Equal(got[i], want[j][i]) {
					t.Fatalf("window %d job %d CPI %d: stream %v != serial %v", window, j, i, got[i], want[j][i])
				}
			}
		}
		st.Close()
	}
}

// TestWarmStreamAllocsPerCPI bounds what a warm stream allocates per CPI
// at radar.Small() with the A10 assignment (2,1,2,1,1,2,1) and 4-CPI jobs:
// every stage's buffers and payloads are sized once, so what is left is
// the message plane and the driver, not the kernels. The 28.25 measured
// break down, by an allocation profile of the warm loop, into:
//   - 19 messages allocated by their senders on every CPI: 2 raw slabs
//     (the feeder), 10 Doppler sends (2 workers × 3 training + 2
//     beamforming messages), 4 beam slabs, 2 power slabs, 1 report;
//   - 2.25 weight messages: 3 on a CPI that trains (one per
//     weight→beamformer edge: easy 1→1, hard 2→1) and none on a job's
//     last CPI, ¾ × 3 on 4-CPI jobs;
//   - 2 raw-slab views (the feeder);
//   - 4 in the collector: its merged report, and 3 in sorting it;
//   - 1: ProcessJob's 4 per job (the cube accessor, the submitter's
//     channel and goroutine, the result slice) over the job's 4 CPIs.
//
// The bound leaves room for a few more; a kernel or stage that allocates
// per CPI again costs tens to thousands.
func TestWarmStreamAllocsPerCPI(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are the race runtime's")
	}
	const bound = 40
	sc := radar.DefaultScene(radar.Small())
	st, err := NewStream(StreamConfig{Scene: sc, Assign: NewAssignment(2, 1, 2, 1, 1, 2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cpis := job(sc, 0, 4)
	// Warm every ring slot (depth defaultWindow+1) and lazily sized buffer.
	for i := 0; i < 2*(defaultWindow+1); i++ {
		if _, err := st.ProcessJob(cpis); err != nil {
			t.Fatal(err)
		}
	}
	perCPI := testing.AllocsPerRun(20, func() {
		if _, err := st.ProcessJob(cpis); err != nil {
			t.Fatal(err)
		}
	}) / float64(len(cpis))
	t.Logf("%.1f allocations per CPI", perCPI)
	if perCPI > bound {
		t.Errorf("warm stream allocates %.1f times per CPI, bound %d", perCPI, bound)
	}
}
