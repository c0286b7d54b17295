package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/dist"
	"pstap/internal/history"
	"pstap/internal/leakcheck"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/slo"
)

// fetchAlerts reads the server's /alerts.json surface.
func fetchAlerts(t *testing.T, s *Server) AlertsResponse {
	t.Helper()
	rr := httptest.NewRecorder()
	s.AlertsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/alerts.json", nil))
	var resp AlertsResponse
	if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
		t.Fatalf("/alerts.json payload: %v", err)
	}
	return resp
}

// TestSLOBurnRateFires is the SLO acceptance test: a 2-process split
// replica whose first job is fault-slowed breaches a pinned eq.-2
// latency SLO — the fast-window burn-rate alert must fire within 2
// evaluation ticks of the first bad sample, /alerts.json and the
// stapd_alerts_firing Prometheus family must agree, a breach flight
// record with the lead-up history embedded must land in FlightDir, and
// clean jobs flushing the gauge window must resolve the alert.
func TestSLOBurnRateFires(t *testing.T) {
	leakcheck.Check(t)
	oldPoll := nodePollInterval
	nodePollInterval = 50 * time.Millisecond
	t.Cleanup(func() { nodePollInterval = oldPoll })

	secret := []byte("slo-secret")
	sc := radar.DefaultScene(radar.Small())
	node1, addr1 := startObsNode(t, secret, "n1", "")
	node2, addr2 := startObsNode(t, secret, "n2", "")
	t.Cleanup(func() { node1.Close(); node2.Close() })

	placement, err := dist.ParsePlacement("0-4/5-6", 2)
	if err != nil {
		t.Fatal(err)
	}
	flightDir := t.TempDir()
	// The SLO pins the cluster-merged eq. 2 latency bound at 250 ms: the
	// clean small-scene pipeline sits far below it, the 500 ms injected
	// slowdowns far above. The tight objective (10% error budget) and
	// short fast window make the second bad sample already a >=1.2 burn.
	spec := slo.Spec{
		Name:      "eq2-latency",
		Series:    "r0/cluster/eq2_latency_seconds",
		Kind:      slo.LatencyBound,
		Threshold: 0.25,
		Objective: 0.9,

		FastWindowSec: 0.25, FastBurn: 1.2,
		SlowWindowSec: 0.5, SlowBurn: 2,
		MinSamples: 2,
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
			// Fire-once rules: each of the first job's three CPIs pays one
			// 500 ms CFAR stall, then the plan is spent and later jobs run
			// clean — the controllable fault that clears itself.
			FaultPlan: "cfar:*:0:slow(500ms); cfar:*:1:slow(500ms); cfar:*:2:slow(500ms)",
			Seed:      1,
		}},
		CPITimeout:      20 * time.Second,
		RetryAfter:      5 * time.Millisecond,
		RestartBudget:   50,
		RestartBackoff:  10 * time.Millisecond,
		ObsWindow:       4,
		HistoryInterval: 25 * time.Millisecond,
		SLOs:            []slo.Spec{spec},
		FlightDir:       flightDir,
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

	// No alert before any breach.
	if got := fetchAlerts(t, s); got.Firing != 0 || len(got.Alerts) != 1 {
		t.Fatalf("fresh server alerts: %+v", got)
	}

	// The poisoned first job drives the windowed eq. 2 gauge over the
	// threshold; with no further jobs the gauge window stays bad, so the
	// alert must fire and stay firing.
	submitRecover(t, cl, cpis)
	deadline := time.Now().Add(15 * time.Second)
	for fetchAlerts(t, s).Firing == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("alert never fired; alerts: %+v", fetchAlerts(t, s))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Fast window must be the firing one, within 2 evals of breach start.
	a := s.Alerts()[0]
	if !a.Firing {
		t.Fatalf("engine state disagrees with /alerts.json: %+v", a)
	}
	if a.FiredEval == 0 || a.BreachEval == 0 || a.FiredEval-a.BreachEval > 2 {
		t.Errorf("fired %d evals after breach start (breach %d, fired %d), want <= 2",
			a.FiredEval-a.BreachEval, a.BreachEval, a.FiredEval)
	}

	// /alerts.json and the Prometheus families agree.
	var prom bytes.Buffer
	s.WritePrometheus(&prom)
	promText := prom.String()
	if !strings.Contains(promText, "stapd_alerts_firing 1") {
		t.Errorf("stapd_alerts_firing != 1 while /alerts.json fires:\n%s", grepLines(promText, "stapd_slo"))
	}
	if !strings.Contains(promText, `stapd_slo_firing{slo="eq2-latency"} 1`) {
		t.Errorf("stapd_slo_firing family missing:\n%s", grepLines(promText, "stapd_slo"))
	}
	if !strings.Contains(promText, `stapd_slo_burn_rate{slo="eq2-latency",window="fast"}`) {
		t.Errorf("stapd_slo_burn_rate family missing:\n%s", grepLines(promText, "stapd_slo"))
	}

	// The breach flight record exists and embeds the lead-up history.
	recs := flightRecords(t, flightDir)
	if len(recs) == 0 {
		t.Fatal("no breach flight record written")
	}
	raw, err := os.ReadFile(recs[len(recs)-1])
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Reason  string                     `json:"reason"`
		History map[string][]history.Point `json:"history"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec.Reason, "slo breach: eq2-latency") {
		t.Errorf("flight record reason %q, want slo breach", rec.Reason)
	}
	if len(rec.History) == 0 {
		t.Error("flight record has no embedded history")
	}

	// /history.json serves the breached series.
	rr := httptest.NewRecorder()
	s.HistoryHandler().ServeHTTP(rr, httptest.NewRequest("GET",
		"/history.json?series=r0/cluster/eq2_latency_seconds", nil))
	var hist history.RangeResponse
	if err := json.NewDecoder(rr.Body).Decode(&hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Series["r0/cluster/eq2_latency_seconds"]) == 0 {
		t.Errorf("/history.json has no points for the breached series: %+v", hist.Series)
	}

	// Clean jobs flush the spent fault plan out of the gauge window; the
	// fast and slow windows drain and the alert must resolve.
	deadline = time.Now().Add(20 * time.Second)
	for fetchAlerts(t, s).Firing != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("alert never resolved; alerts: %+v", fetchAlerts(t, s))
		}
		got := submitRecover(t, cl, cpis)
		for i := range want {
			if !sameDetections(got[i], want[i]) {
				t.Fatalf("post-fault CPI %d: detections differ from serial reference", i)
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// grepLines returns the lines of s containing sub (test-failure context).
func grepLines(s, sub string) string {
	var out []string
	for _, ln := range strings.Split(s, "\n") {
		if strings.Contains(ln, sub) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}
