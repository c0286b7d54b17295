package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/dist"
	"pstap/internal/leakcheck"
	"pstap/internal/pipeline"
	"pstap/internal/plan"
	"pstap/internal/radar"
	"pstap/internal/slo"
)

// TestPlanReportInProcess drives an in-process pool and checks the /plan
// surface: after enough jobs the report must carry a complete per-task
// observation window, a calibrated model whose predicted period tracks
// the observed one, and a full-budget recommendation.
func TestPlanReportInProcess(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	a := pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1)
	s := startServer(t, Config{Scene: sc, Assign: a, Replicas: 1, ObsWindow: 16})
	t.Cleanup(func() { s.Shutdown(context.Background()) })

	// Before any job the journal is empty: uncalibrated, no
	// recommendation, but the seed model's prediction is present.
	rep := s.PlanReport()
	if rep.Calibrated || rep.Recommended != nil {
		t.Fatalf("fresh server report claims calibration: %+v", rep)
	}
	if rep.PredictedPeriodSec <= 0 {
		t.Fatal("fresh report has no predicted period")
	}

	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var cpis []*cube.Cube
	for i := 0; i < 6; i++ {
		cpis = append(cpis, sc.GenerateCPI(i))
	}
	if _, err := cl.SubmitRetry(cpis, 50); err != nil {
		t.Fatal(err)
	}

	rep = s.PlanReport()
	if !rep.Calibrated {
		t.Fatal("report not calibrated after a served job")
	}
	if len(rep.Tasks) != pipeline.NumTasks {
		t.Fatalf("report has %d task rows, want %d", len(rep.Tasks), pipeline.NumTasks)
	}
	if rep.WindowCPIs == 0 || rep.ObservedPeriodSec <= 0 {
		t.Fatalf("empty observation window: %+v", rep)
	}
	if rep.Recommended == nil {
		t.Fatal("calibrated report has no recommendation")
	}
	total := 0
	for _, n := range rep.Recommended.Assign {
		total += n
	}
	if total != a.Total() {
		t.Errorf("recommended assignment spends %d nodes, want %d", total, a.Total())
	}

	// Every report is one EWMA calibration step over the same journal
	// window, so repeated reports must drive predicted toward observed.
	converged := false
	for i := 0; i < 10 && !converged; i++ {
		converged = s.PlanReport().DriftFrac < 0.2
	}
	if !converged {
		t.Errorf("drift still %.3f after 10 calibration steps", s.PlanReport().DriftFrac)
	}

	// The HTTP surface serves the same schema.
	rr := httptest.NewRecorder()
	s.PlanHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/plan", nil))
	var decoded plan.Report
	if err := json.NewDecoder(rr.Body).Decode(&decoded); err != nil {
		t.Fatalf("/plan payload: %v", err)
	}
	if !decoded.Calibrated || len(decoded.Tasks) != pipeline.NumTasks {
		t.Errorf("/plan payload incomplete: %+v", decoded)
	}
}

// TestReplanRollsPlacementUnderDrift is the drift acceptance test: two
// tasks slowed by injected faults sit on the same node of a distributed
// slot, the observed period drifts far from the seed model's prediction,
// and the replanner — fed by the federated span journals — must recommend
// and roll the placement that separates them, without breaking
// bit-exactness afterwards.
func TestReplanRollsPlacementUnderDrift(t *testing.T) {
	leakcheck.Check(t)
	oldPoll := nodePollInterval
	nodePollInterval = 50 * time.Millisecond
	t.Cleanup(func() { nodePollInterval = oldPoll })

	secret := []byte("replan-secret")
	sc := radar.DefaultScene(radar.Small())
	node1, addr1 := startObsNode(t, secret, "n1", "")
	node2, addr2 := startObsNode(t, secret, "n2", "")
	t.Cleanup(func() { node1.Close(); node2.Close() })

	// Both slowed tasks (pulse compression and CFAR) start on node 2:
	// its busy sum is ~2x node 1's, so the re-split that isolates CFAR
	// wins back about half the bottleneck.
	placement, err := dist.ParsePlacement("0-4/5-6", 2)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{
		Scene:  sc,
		Assign: pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1),
		DistClusters: []dist.ClusterConfig{{
			Name:      "c0",
			Nodes:     []string{addr1, addr2},
			Placement: placement,
			Secret:    secret,
			Heartbeat: 50 * time.Millisecond,
			FaultPlan: "pulse:*:*:slow(20ms)*; cfar:*:*:slow(20ms)*",
			Seed:      1,
		}},
		CPITimeout:     20 * time.Second,
		RetryAfter:     5 * time.Millisecond,
		RestartBudget:  50,
		RestartBackoff: 10 * time.Millisecond,
		ObsWindow:      16,
		Replan:         true,
		ReplanInterval: 150 * time.Millisecond,
	})
	t.Cleanup(func() { s.Shutdown(context.Background()) })

	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var cpis []*cube.Cube
	for i := 0; i < 3; i++ {
		cpis = append(cpis, sc.GenerateCPI(i))
	}
	want := serialReference(sc, cpis)

	// Keep jobs flowing so the nodes produce spans; the roll aborts
	// whatever is in flight, so submissions ride the recovery path. The
	// planner needs a federation poll after enough spans, then one
	// replan tick past the drift threshold.
	deadline := time.Now().Add(30 * time.Second)
	for s.Metrics().Snapshot().Replans == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no placement roll within deadline; report: %+v", s.PlanReport())
		}
		submitRecover(t, cl, cpis)
	}

	slot := s.slots[0]
	rolled := s.slotPlacement(slot).String()
	if rolled != "0-5/6" {
		t.Errorf("rolled placement %q, want 0-5/6 (CFAR isolated)", rolled)
	}
	rep := s.PlanReport()
	if rep.ReplansTotal == 0 || !rep.ReplanEnabled {
		t.Errorf("report does not record the roll: %+v", rep)
	}
	if rep.Placement != rolled {
		t.Errorf("report placement %q, slot placement %q", rep.Placement, rolled)
	}

	// The rolled cluster must still reproduce the serial reference.
	got := submitRecover(t, cl, cpis)
	for i := range want {
		if !sameDetections(got[i], want[i]) {
			t.Fatalf("post-roll CPI %d: detections differ from serial reference", i)
		}
	}
}

// TestReplanRollsPlacementUnderSLOPressure: with Replan on, a firing
// latency SLO arms a placement roll even while the observed period sits
// well inside replanDrift of the calibrated model — the breach the drift
// trigger alone never sees. A firing alert of another kind (a link RTT
// ceiling) arms nothing: a better placement cannot buy it back. The
// replanner's own loop is parked (hour-long interval) because its early
// passes would meet the uncalibrated seed model's drift and roll on that;
// the test takes the calibration steps itself through PlanReport, then
// runs one pass.
func TestReplanRollsPlacementUnderSLOPressure(t *testing.T) {
	leakcheck.Check(t)
	oldPoll := nodePollInterval
	nodePollInterval = 50 * time.Millisecond
	t.Cleanup(func() { nodePollInterval = oldPoll })

	// Both windows short, and every sample violates its threshold: the
	// alert fires as soon as the fast window holds two points.
	firing := func(name, series string, kind slo.Kind, threshold float64) slo.Spec {
		return slo.Spec{Name: name, Series: series, Kind: kind, Threshold: threshold, Objective: 0.9,
			FastWindowSec: 0.25, FastBurn: 1.2, SlowWindowSec: 0.5, SlowBurn: 2, MinSamples: 2}
	}
	for _, tc := range []struct {
		spec  slo.Spec
		rolls bool
	}{
		{firing("rtt", "r0/link/m1/rtt_seconds", slo.RTTCeiling, 1e-9), false},
		{firing("eq2-latency", "r0/cluster/eq2_latency_seconds", slo.LatencyBound, 1e-3), true},
	} {
		t.Run(tc.spec.Name, func(t *testing.T) {
			secret := []byte("slo-replan-secret")
			sc := radar.DefaultScene(radar.Small())
			node1, addr1 := startObsNode(t, secret, "n1", "")
			node2, addr2 := startObsNode(t, secret, "n2", "")
			t.Cleanup(func() { node1.Close(); node2.Close() })
			// As in the drift test: both slowed tasks start on node 2, so
			// the re-split that isolates CFAR wins back about half the
			// bottleneck.
			placement, err := dist.ParsePlacement("0-4/5-6", 2)
			if err != nil {
				t.Fatal(err)
			}
			s := startServer(t, Config{
				Scene:  sc,
				Assign: pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1),
				DistClusters: []dist.ClusterConfig{{
					Name:      "c0",
					Nodes:     []string{addr1, addr2},
					Placement: placement,
					Secret:    secret,
					Heartbeat: 50 * time.Millisecond,
					FaultPlan: "pulse:*:*:slow(20ms)*; cfar:*:*:slow(20ms)*",
					Seed:      1,
				}},
				CPITimeout:      20 * time.Second,
				RetryAfter:      5 * time.Millisecond,
				RestartBudget:   50,
				RestartBackoff:  10 * time.Millisecond,
				ObsWindow:       16,
				Replan:          true,
				ReplanInterval:  time.Hour,
				HistoryInterval: 25 * time.Millisecond,
				SLOs:            []slo.Spec{tc.spec},
			})
			t.Cleanup(func() { s.Shutdown(context.Background()) })
			cl, err := Dial(s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			var cpis []*cube.Cube
			for i := 0; i < 3; i++ {
				cpis = append(cpis, sc.GenerateCPI(i))
			}

			// Calibrate until the model predicts the observed period to
			// within a quarter of the drift threshold, a winning re-split
			// is on offer, and the alert is firing.
			deadline := time.Now().Add(30 * time.Second)
			for {
				if time.Now().After(deadline) {
					t.Fatalf("never calibrated with the alert firing; report %+v, alerts %+v", s.PlanReport(), s.Alerts())
				}
				submitRecover(t, cl, cpis)
				rep := s.PlanReport()
				rec := rep.Recommended
				if len(rep.Tasks) == 0 || rec == nil || rec.Placement != "0-5/6" || rec.GainFrac <= replanMinGain {
					continue
				}
				if rep.DriftFrac < replanDrift/4 && s.Alerts()[0].Firing {
					t.Logf("calibrated: drift %.3f, gain %.2f", rep.DriftFrac, rec.GainFrac)
					break
				}
			}

			s.replanPass()
			want, wantReplans := "0-4/5-6", int64(0)
			if tc.rolls {
				want, wantReplans = "0-5/6", 1
			}
			if got := s.slotPlacement(s.slots[0]).String(); got != want {
				t.Errorf("placement after the pass %q, want %q", got, want)
			}
			if got := s.Metrics().Snapshot().Replans; got != wantReplans {
				t.Errorf("replans %d, want %d", got, wantReplans)
			}
		})
	}
}
