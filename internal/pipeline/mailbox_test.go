package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pstap/internal/cube"
	"pstap/internal/mp"
	"pstap/internal/radar"
)

// TestMailboxBound checks the mailbox bound stated at mp's mailbox type:
// while jobs of at least two CPIs run back to back at window W, a rank
// with in inbound messages per CPI, ahead of them weights, holds at most
// W·in + ahead messages queued, and a weight task's rank (W+2)·in. A send
// hook that only observes samples World.QueueDepths on every send and
// counts each rank's inbound edges — distinct (source, stream) pairs — so
// the bound is computed from the traffic the run produced.
func TestMailboxBound(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	var jobs [][]*cube.Cube
	for i, n := range []int{2, 3, 5, 2, 4, 2, 2, 3} {
		var job []*cube.Cube
		for k := 0; k < n; k++ {
			job = append(job, sc.GenerateCPI(10*i+k))
		}
		jobs = append(jobs, job)
	}
	for _, a := range []struct {
		name   string
		assign Assignment
	}{{"A10", NewAssignment(2, 1, 2, 1, 1, 2, 1)}, {"A7", NewAssignment(1, 1, 1, 1, 1, 1, 1)}} {
		for _, window := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/window%d", a.name, window), func(t *testing.T) {
				topo := newTopology(sc.Params, a.assign)
				world := mp.NewWorld(a.assign.Total() + 1)
				type edge struct{ src, stream int }
				var (
					mu       sync.Mutex
					edges    = make([]map[edge]bool, world.Size())
					peak     = make([]int, world.Size())
					sampling atomic.Bool
				)
				for r := range edges {
					edges[r] = map[edge]bool{}
				}
				sampling.Store(true)
				world.SetSendHook(func(src, dst, tag int, data any) (any, bool) {
					if !sampling.Load() {
						return data, false
					}
					depths := world.QueueDepths()
					mu.Lock()
					edges[dst][edge{src, tag >> 20}] = true
					for r, d := range depths {
						peak[r] = max(peak[r], d)
					}
					mu.Unlock()
					return data, false
				})
				st, err := NewHostedStream(StreamConfig{Scene: sc, Assign: a.assign, Window: window},
					Hosting{World: world, Driver: true, Tasks: func(int) bool { return true }})
				if err != nil {
					t.Fatal(err)
				}
				for _, job := range jobs {
					if _, err := st.ProcessJob(job); err != nil {
						t.Fatal(err)
					}
				}
				// Close's EOF adds one message per inbound edge: outside the bound.
				sampling.Store(false)
				st.Close()

				weightRank := func(r int) bool {
					return topo.groups[TaskEasyWeight].Contains(r) || topo.groups[TaskHardWeight].Contains(r)
				}
				for r := range peak {
					in, ahead := len(edges[r]), 0
					for e := range edges[r] {
						if e.stream == tagEasyW || e.stream == tagHardW {
							ahead++
						}
					}
					bound := window*in + ahead
					if weightRank(r) {
						bound = (window + 2) * in
					}
					if peak[r] > bound {
						t.Errorf("rank %d: %d messages queued, bound %d (window %d, %d inbound edges, %d of them weights)",
							r, peak[r], bound, window, in, ahead)
					}
				}
			})
		}
	}
}
