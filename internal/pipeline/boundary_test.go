package pipeline

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pstap/internal/mp"
	"pstap/internal/radar"
)

// boundaryJobs are back-to-back job lengths with 1-CPI jobs (Reset and
// Last on one CPI) after both a long and a short job.
var boundaryJobs = []int{1, 2, 3, 4, 1, 5, 2}

// TestJobBoundaryStopsTheWeightEdges runs boundaryJobs on one warm stream
// per assignment and window and checks the job-end rule from every side:
//
//   - each job's detections equal a fresh stap.Processor's, so the
//     weights no longer trained on a job's last CPI were never read;
//   - the weight streams carry exactly Σ(nⱼ − 1) × (weight→beamformer
//     edges) messages, and no training message of a Last CPI carries
//     rows;
//   - after Close no mailbox holds a message, so no weights were shipped
//     that nothing received;
//   - a beamformer waiting for weights that never come is a CPITimeout
//     error, not a hang.
//
// dist's TestJobBoundarySplitReplica runs the same jobs through a split
// replica whose weight edges cross the cut.
func TestJobBoundaryStopsTheWeightEdges(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	jobs, want := serialJobs(sc, boundaryJobs)
	trained := 0 // CPIs whose weights some later CPI of the job applies
	for _, n := range boundaryJobs {
		trained += n - 1
	}
	for _, tc := range []struct {
		name  string
		a     Assignment
		edges int // (weight worker, beamformer) pairs sharing a bin
	}{
		{"A10", NewAssignment(2, 1, 2, 1, 1, 2, 1), 3}, // easy 1→1, hard 2→1
		{"A7", NewAssignment(1, 1, 1, 1, 1, 1, 1), 2},
	} {
		for _, window := range []int{1, 2} {
			world := mp.NewWorld(tc.a.Total() + 1)
			var weights, lastRows atomic.Int64
			world.SetSendHook(func(_, _, tg int, data any) (any, bool) {
				switch tg >> 20 {
				case tagEasyW, tagHardW:
					weights.Add(1)
				case tagEasyTrain:
					if m := data.(*easyTrainMsg); m.Ctl.Last && m.Rows != nil {
						lastRows.Add(1)
					}
				case tagHardTrain:
					if m := data.(*hardTrainMsg); m.Ctl.Last && m.Rows != nil {
						lastRows.Add(1)
					}
				}
				return data, false
			})
			st, err := NewHostedStream(
				StreamConfig{Scene: sc, Assign: tc.a, Window: window, CPITimeout: 5 * time.Second},
				Hosting{World: world, Driver: true, Tasks: func(int) bool { return true }})
			if err != nil {
				t.Fatal(err)
			}
			for j, cpis := range jobs {
				got, err := st.ProcessJob(cpis)
				if err != nil {
					st.Abort()
					t.Fatalf("%s window %d job %d: %v", tc.name, window, j, err)
				}
				for i := range want[j] {
					if !slices.Equal(got[i], want[j][i]) {
						t.Fatalf("%s window %d job %d CPI %d: stream %v != serial %v", tc.name, window, j, i, got[i], want[j][i])
					}
				}
			}
			st.Close()
			if got, want := weights.Load(), int64(trained*tc.edges); got != want {
				t.Errorf("%s window %d: %d weight messages, want %d (%d trained CPIs x %d edges)", tc.name, window, got, want, trained, tc.edges)
			}
			if n := lastRows.Load(); n != 0 {
				t.Errorf("%s window %d: %d training messages of a job's last CPI carry rows", tc.name, window, n)
			}
			for r, d := range world.QueueDepths() {
				if d != 0 {
					t.Errorf("%s window %d: rank %d holds %d messages after Close", tc.name, window, r, d)
				}
			}
		}
	}
}
