package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/fault"
	"pstap/internal/leakcheck"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

// chaosServer starts a one-replica server with the given fault plan and
// aggressive restart timing, registering shutdown and leak verification.
func chaosServer(t *testing.T, sc *radar.Scene, plan string, cpiTimeout time.Duration) *Server {
	t.Helper()
	leakcheck.Check(t)
	s := startServer(t, Config{
		Scene:          sc,
		Assign:         pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
		Replicas:       1,
		QueueDepth:     4,
		Window:         2,
		RetryAfter:     5 * time.Millisecond,
		CPITimeout:     cpiTimeout,
		FaultPlan:      fault.MustParsePlan(plan),
		FaultSeed:      1,
		RestartBudget:  3,
		RestartBackoff: 5 * time.Millisecond,
	})
	// Registered after leakcheck.Check, so the shutdown runs before the
	// leak verification.
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s
}

// submitRecover retries a job through busy windows and transient replica
// loss until it succeeds — the client-visible recovery contract after a
// fault.
func submitRecover(t *testing.T, cl *Client, cpis []*cube.Cube) [][]stap.Detection {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		dets, err := cl.Submit(cpis)
		if err == nil {
			return dets
		}
		if time.Now().After(deadline) {
			t.Fatalf("no recovery before deadline, last error: %v", err)
		}
		var be *BusyError
		var je *JobError
		switch {
		case errors.As(err, &be):
			time.Sleep(be.RetryAfter)
		case errors.As(err, &je):
			time.Sleep(10 * time.Millisecond)
		default:
			t.Fatalf("unexpected error during recovery: %v", err)
		}
	}
}

// TestChaosFaultMatrix drives every injectable fault kind through a
// loopback server: the poisoned job must come back with the right typed
// status, the replica must restart within budget, a subsequent job must
// succeed with reference-exact detections, and nothing may leak.
func TestChaosFaultMatrix(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	cases := []struct {
		name       string
		plan       string
		cpiTimeout time.Duration
		wantCode   Status
		wantFault  bool // a supervised worker fault is recorded
	}{
		{name: "panic", plan: "doppler:0:1:panic", wantCode: StatusReplicaLost, wantFault: true},
		{name: "err", plan: "cfar:0:1:err", wantCode: StatusReplicaLost, wantFault: true},
		{name: "droppayload", plan: "easybf:0:1:droppayload", wantCode: StatusReplicaLost, wantFault: true},
		{name: "hang", plan: "pulse:0:1:hang", cpiTimeout: 500 * time.Millisecond, wantCode: StatusTimeout},
		{name: "slow", plan: "hardbf:0:1:slow(30s)", cpiTimeout: 500 * time.Millisecond, wantCode: StatusTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := chaosServer(t, sc, tc.plan, tc.cpiTimeout)
			cl, err := Dial(s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			// The poisoned job: its second CPI hits the injected rule.
			poisoned := []*cube.Cube{sc.GenerateCPI(0), sc.GenerateCPI(1), sc.GenerateCPI(2)}
			_, err = cl.Submit(poisoned)
			var je *JobError
			if !errors.As(err, &je) {
				t.Fatalf("poisoned job: err = %v, want *JobError", err)
			}
			if je.Code != tc.wantCode {
				t.Fatalf("poisoned job status = %s, want %s (%v)", je.Code, tc.wantCode, je)
			}

			// The pool recovers: a fresh job succeeds and matches the
			// serial reference (fire-once rules are spent, so the
			// restarted replica is clean).
			clean := []*cube.Cube{sc.GenerateCPI(10), sc.GenerateCPI(11)}
			got := submitRecover(t, cl, clean)
			want := serialReference(sc, clean)
			for i := range want {
				if !sameDetections(got[i], want[i]) {
					t.Errorf("recovered job CPI %d differs from serial reference", i)
				}
			}

			snap := s.Metrics().Snapshot()
			if snap.ReplicaRestarts < 1 {
				t.Errorf("replica_restarts = %d, want >= 1", snap.ReplicaRestarts)
			}
			if tc.wantFault && snap.WorkerFaults < 1 {
				t.Errorf("worker_faults = %d, want >= 1", snap.WorkerFaults)
			}
			if snap.LiveReplicas != 1 {
				t.Errorf("live_replicas = %d after recovery, want 1", snap.LiveReplicas)
			}
			if h := snap.Replicas[0].Health; h != "live" {
				t.Errorf("replica health = %q after recovery, want live", h)
			}
		})
	}
}

// TestChaosPromCounters checks the robustness counters reach the
// Prometheus exposition: after one injected panic and recovery, the
// restart and fault totals read exactly one. The poisoned job has two
// CPIs: hard weights trained on CPI 0 are first used by CPI 1's
// beamformer, so a one-CPI job can complete before the fault fires.
func TestChaosPromCounters(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	s := chaosServer(t, sc, "hardweight:0:0:panic", 0)
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var je *JobError
	if _, err := cl.Submit([]*cube.Cube{sc.GenerateCPI(0), sc.GenerateCPI(1)}); !errors.As(err, &je) || je.Code != StatusReplicaLost {
		t.Fatalf("poisoned job: err = %v, want replica-lost JobError", err)
	}
	submitRecover(t, cl, []*cube.Cube{sc.GenerateCPI(2)})

	rec := httptest.NewRecorder()
	s.PromHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.prom", nil))
	body := rec.Body.String()
	for _, line := range []string{
		"stapd_replica_restarts_total 1",
		"stapd_worker_faults_total 1",
		"stapd_live_replicas 1",
		`stapd_replica_up{replica="0"} 1`,
	} {
		if !strings.Contains(body, line) {
			t.Errorf("exposition missing %q:\n%s", line, body)
		}
	}
}

// TestChaosRestartBudget exhausts a slot's restart budget with a
// repeating fault: the server must degrade to honest rejections rather
// than crash-looping, and still shut down cleanly.
func TestChaosRestartBudget(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	leakcheck.Check(t)
	s := startServer(t, Config{
		Scene:          sc,
		Assign:         pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
		Replicas:       1,
		QueueDepth:     2,
		Window:         2,
		RetryAfter:     2 * time.Millisecond,
		FaultPlan:      fault.MustParsePlan("doppler:0:*:panic*"), // every CPI, forever
		RestartBudget:  2,
		RestartBackoff: 2 * time.Millisecond,
	})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	job := []*cube.Cube{sc.GenerateCPI(0)}
	deadline := time.Now().Add(15 * time.Second)
	var lastErr error
	for {
		if time.Now().After(deadline) {
			t.Fatalf("budget never exhausted, last error: %v", lastErr)
		}
		_, lastErr = cl.Submit(job)
		if lastErr == nil {
			t.Fatal("job succeeded under an every-CPI panic plan")
		}
		var je *JobError
		if errors.As(lastErr, &je) && je.Code == StatusError &&
			strings.Contains(je.Msg, "no live replicas") {
			break // degraded steady state reached
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap := s.Metrics().Snapshot()
	if snap.ReplicaRestarts != 2 {
		t.Errorf("replica_restarts = %d, want the full budget of 2", snap.ReplicaRestarts)
	}
	if h := snap.Replicas[0].Health; h != "dead" {
		t.Errorf("replica health = %q, want dead", h)
	}
	if snap.LiveReplicas != 0 {
		t.Errorf("live_replicas = %d, want 0", snap.LiveReplicas)
	}
}

// TestChaosBusyHintWhileRestarting checks graceful degradation timing: a
// submit landing while the only replica is restarting is rejected
// StatusBusy with a positive retry-after hint, not an error.
func TestChaosBusyHintWhileRestarting(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	leakcheck.Check(t)
	s := startServer(t, Config{
		Scene:          sc,
		Assign:         pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
		Replicas:       1,
		Window:         2,
		RetryAfter:     5 * time.Millisecond,
		FaultPlan:      fault.MustParsePlan("doppler:0:0:panic"),
		RestartBudget:  3,
		RestartBackoff: 300 * time.Millisecond, // wide restart window to land in
	})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var je *JobError
	if _, err := cl.Submit([]*cube.Cube{sc.GenerateCPI(0)}); !errors.As(err, &je) {
		t.Fatalf("poisoned job: err = %v, want *JobError", err)
	}
	// The slot is now in its 300ms restart backoff.
	_, err = cl.Submit([]*cube.Cube{sc.GenerateCPI(1)})
	var be *BusyError
	if !errors.As(err, &be) {
		t.Fatalf("submit while restarting: err = %v, want *BusyError", err)
	}
	if be.RetryAfter <= 0 {
		t.Errorf("busy rejection while restarting carries no retry hint: %v", be)
	}
	// And the hint is honest: the pool is back not long after it.
	submitRecover(t, cl, []*cube.Cube{sc.GenerateCPI(2)})
}
