package serve

import (
	"context"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/dist"
	"pstap/internal/leakcheck"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

// TestChaosSoakCluster is the randomized partition-grade soak: a
// two-distributed-slot pool (four stapnode agents) runs under
// probabilistic worker panics, a permanently flapping link and injected
// slowdowns while concurrent clients hammer it. The contract under any
// interleaving: every accepted job is answered — StatusOK replies are
// bit-exact, failures carry a typed status — nothing is lost, and
// nothing leaks. The fault schedule derives from a printed seed; rerun
// a failure with STAP_CHAOS_SEED=<seed>. STAP_SOAK_MS stretches the
// default ~2.5s run (CI soaks longer).
func TestChaosSoakCluster(t *testing.T) {
	seed := time.Now().UnixNano()
	if env := os.Getenv("STAP_CHAOS_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("STAP_CHAOS_SEED: %v", err)
		}
		seed = v
	}
	t.Logf("chaos soak seed %d (rerun with STAP_CHAOS_SEED=%d)", seed, seed)
	soak := 2500 * time.Millisecond
	if env := os.Getenv("STAP_SOAK_MS"); env != "" {
		ms, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("STAP_SOAK_MS: %v", err)
		}
		soak = time.Duration(ms) * time.Millisecond
	}

	leakcheck.Check(t)
	secret := []byte("chaos-soak-secret")
	sc := radar.DefaultScene(radar.Small())
	var addrs []string
	for i := 0; i < 4; i++ {
		node, addr := startDistNode(t, secret, "127.0.0.1:0")
		addrs = append(addrs, addr)
		t.Cleanup(node.Close)
	}
	placement, err := dist.ParsePlacement("0-2/3-6", 2)
	if err != nil {
		t.Fatal(err)
	}
	cluster := func(name string, nodes []string, faults string, seed int64) dist.ClusterConfig {
		return dist.ClusterConfig{
			Name:      name,
			Nodes:     nodes,
			Placement: placement,
			Secret:    secret,
			Heartbeat: 100 * time.Millisecond,
			FaultPlan: faults,
			Seed:      seed,
		}
	}
	s := startServer(t, Config{
		Scene:  sc,
		Assign: pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1),
		DistClusters: []dist.ClusterConfig{
			cluster("soak0", addrs[:2], "doppler:0:*:panic*@0.04", seed),
			cluster("soak1", addrs[2:], "link:1:*:flap(120ms); cfar:0:*:slow(15ms)*@0.25", seed+1),
		},
		QueueDepth:     8,
		CPITimeout:     10 * time.Second,
		RetryAfter:     2 * time.Millisecond,
		RestartBudget:  8,
		RestartBackoff: 5 * time.Millisecond,
		FailoverBudget: 2,
		FallbackInproc: true,
	})
	t.Cleanup(func() { s.Shutdown(context.Background()) })

	// Jobs of varying length so the probabilistic per-CPI fault rolls see
	// different index ranges, with serial references precomputed.
	lengths := []int{1, 2, 3, 5}
	jobs := make([][]*cube.Cube, len(lengths))
	wants := make([][][]stap.Detection, len(lengths))
	for i, n := range lengths {
		for c := 0; c < n; c++ {
			jobs[i] = append(jobs[i], sc.GenerateCPI(c))
		}
		wants[i] = serialReference(sc, jobs[i])
	}

	var submitted, ok, busy, typed, deadlined atomic.Int64
	stop := time.Now().Add(soak)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, derr := Dial(s.Addr().String())
			if derr != nil {
				t.Errorf("client %d: %v", w, derr)
				return
			}
			defer cl.Close()
			for iter := 0; time.Now().Before(stop); iter++ {
				ji := (w*7 + iter) % len(jobs)
				req := &Request{CPIs: jobs[ji]}
				if (w+iter)%7 == 0 {
					req.DeadlineMs = 2000
				}
				submitted.Add(1)
				resp, rerr := cl.Do(req)
				if rerr != nil {
					t.Errorf("client %d: transport error: %v", w, rerr)
					return
				}
				switch resp.Status {
				case StatusOK:
					ok.Add(1)
					for c := range wants[ji] {
						if !sameDetections(resp.Detections[c], wants[ji][c]) {
							t.Errorf("client %d job len %d CPI %d: detections differ from serial reference",
								w, lengths[ji], c)
						}
					}
				case StatusBusy:
					busy.Add(1)
					time.Sleep(time.Duration(resp.RetryAfterMs) * time.Millisecond)
				case StatusDeadlineExceeded:
					deadlined.Add(1)
				case StatusReplicaLost, StatusTimeout, StatusError:
					typed.Add(1)
					time.Sleep(5 * time.Millisecond)
				default:
					t.Errorf("client %d: untyped status %v (%s)", w, resp.Status, resp.Err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	snap := s.Metrics().Snapshot()
	t.Logf("soak: %d submitted, %d ok, %d busy, %d typed failures, %d deadline; server accepted=%d completed=%d failed=%d failovers=%d restarts=%d",
		submitted.Load(), ok.Load(), busy.Load(), typed.Load(), deadlined.Load(),
		snap.Accepted, snap.Completed, snap.Failed, snap.Failovers, snap.ReplicaRestarts)
	if ok.Load() == 0 {
		t.Error("soak completed zero jobs")
	}
	// Zero lost accepted jobs: everything admitted was answered as a
	// completion or a typed failure — the counters must balance once all
	// clients have their replies.
	if snap.Accepted != snap.Completed+snap.Failed {
		t.Errorf("job ledger does not balance: accepted %d != completed %d + failed %d",
			snap.Accepted, snap.Completed, snap.Failed)
	}
}
