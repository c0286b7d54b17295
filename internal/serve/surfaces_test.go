package serve

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/dist"
	"pstap/internal/history"
	"pstap/internal/obs"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/slo"
)

// startSurfaceFixture builds the metric-surface fixture: a 2-slot server
// (slot 0 in-process, slot 1 split over two loopback stapnodes) with one
// never-breached SLO, driven until both slots have served a job, the
// federation polled and the history sampler ticked once. It returns the
// server and the first node.
func startSurfaceFixture(t *testing.T) (*Server, *dist.Node) {
	t.Helper()
	secret := []byte("surfaces")
	sc := radar.DefaultScene(radar.Small())
	node1, addr1 := startObsNode(t, secret, "n1", "")
	node2, addr2 := startObsNode(t, secret, "n2", "")
	t.Cleanup(func() { node1.Close(); node2.Close() })
	placement, err := dist.ParsePlacement("0-2/3-6", 2)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{
		Scene:    sc,
		Assign:   pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1),
		Replicas: 1,
		DistClusters: []dist.ClusterConfig{{
			Name: "c0", Nodes: []string{addr1, addr2}, Placement: placement, Secret: secret,
			Heartbeat: 200 * time.Millisecond,
		}},
		CPITimeout: 20 * time.Second,
		// Only the fixture's own tick below samples, so the per-CPI
		// allocation row's tick is the one that saw the jobs.
		HistoryInterval: time.Hour,
		SLOs: []slo.Spec{{Name: "p99", Series: "serve/latency_p99_seconds", Kind: slo.LatencyBound,
			Threshold: 60, Objective: 0.9, FastWindowSec: 1, FastBurn: 2, SlowWindowSec: 5, SlowBurn: 2, MinSamples: 2}},
	})
	t.Cleanup(func() { s.Shutdown(context.Background()) })

	// Two concurrent jobs land one on each idle slot; repeat in the rare
	// case one slot took both.
	for try := 0; ; try++ {
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl, err := Dial(s.Addr().String())
				if err != nil {
					t.Error(err)
					return
				}
				defer cl.Close()
				if _, err := cl.SubmitRetry([]*cube.Cube{sc.GenerateCPI(0), sc.GenerateCPI(1)}, 50); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		snap := s.Metrics().Snapshot()
		if snap.Replicas[0].Jobs > 0 && snap.Replicas[1].Jobs > 0 {
			break
		}
		if try == 20 || t.Failed() {
			t.Fatalf("both slots never served a job: %+v", snap.Replicas)
		}
	}
	// Let a few heartbeats land so the links carry RTT estimates.
	time.Sleep(500 * time.Millisecond)
	s.pollNodes()
	s.sampleOnce(time.Now())
	return s, node1
}

// lastValue returns the newest raw sample of one history series.
func lastValue(st *history.Store, series string) (float64, bool) {
	pts := st.Range(series, history.Tier0, 0, 0)
	if len(pts) == 0 {
		return 0, false
	}
	return pts[len(pts)-1].Mean, true
}

// promValue finds the sample of name with exactly these labels in an
// exposition.
func promValue(body, name string, labels []obs.Label) (float64, bool) {
	var key bytes.Buffer
	obs.PromWriter{W: &key}.Sample(name, labels, 0)
	prefix := strings.TrimSuffix(key.String(), "0\n")
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			v, err := strconv.ParseFloat(rest, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// TestSurfacesAgree pins the seam the metric table exists for: every
// family of families() is on /metrics.prom, every family with a Series is
// in the history store under the expanded name with the value the
// exposition shows, and the store holds nothing the table does not
// declare.
func TestSurfacesAgree(t *testing.T) {
	s, _ := startSurfaceFixture(t)
	var buf bytes.Buffer
	s.WritePrometheus(&buf)
	body := buf.String()
	st := s.History()

	declared := map[string]bool{}
	matched := map[string]int{} // per family name: an in-process slot's link rows have no samples
	for _, f := range s.families() {
		if !strings.Contains(body, "# TYPE "+f.Name+" "+f.Type+"\n") {
			t.Errorf("family %s (%s) has no TYPE line on /metrics.prom", f.Name, f.Type)
		}
		if f.Series == "" {
			continue
		}
		// Heartbeats and allocation move these without any job: between
		// the tick and the scrape a counter may only have advanced, and
		// an RTT or offset EWMA may be anywhere.
		moving := strings.HasPrefix(f.Name, "stap_runtime_") ||
			(strings.HasPrefix(f.Name, "stapd_link_") && !strings.Contains(f.Name, "_messages_"))
		matched[f.Name] += 0
		f.Collect(func(labels []obs.Label, _ float64) {
			var series string
			obs.ObserveFamilies([]obs.Family{obs.Sample(f.Name, f.Type, f.Help, f.Series, labels, 0)},
				func(name string, _ float64) { series = name })
			if series == "" {
				t.Errorf("family %s: template %q does not expand over labels %v", f.Name, f.Series, labels)
				return
			}
			declared[series] = true
			hv, ok := lastValue(st, series)
			if !ok {
				t.Errorf("family %s: series %q not in the history store", f.Name, series)
				return
			}
			pv, ok := promValue(body, f.Name, labels)
			if !ok {
				t.Errorf("family %s: no exposition sample with labels %v", f.Name, labels)
				return
			}
			switch {
			case moving:
				ok = f.Type != "counter" || pv >= hv
			case f.Type == "counter":
				ok = pv == hv
			default: // uptime-normalised gauges drift by (scrape − tick) / uptime
				ok = math.Abs(pv-hv) <= 0.25*math.Max(math.Abs(pv), math.Abs(hv))+1e-3
			}
			if !ok {
				t.Errorf("family %s series %q: history %v, exposition %v", f.Name, series, hv, pv)
			}
			matched[f.Name]++
		})
	}
	for name, n := range matched {
		if n == 0 {
			t.Errorf("family %s declares a series but none is in the store", name)
		}
	}
	for _, name := range st.Names() {
		if !declared[name] {
			t.Errorf("history series %q is declared by no family", name)
		}
	}
	// The fixture's tick saw its jobs complete, so the per-CPI allocation
	// reading is on both surfaces, and a CPI allocates something.
	if v, ok := lastValue(st, "runtime/alloc_bytes_per_cpi"); !ok || v <= 0 {
		t.Errorf("runtime/alloc_bytes_per_cpi = %v (present %v), want a positive reading", v, ok)
	}
	if pv, ok := promValue(body, "stap_runtime_alloc_bytes_per_cpi", nil); !ok || pv <= 0 {
		t.Errorf("stap_runtime_alloc_bytes_per_cpi = %v (present %v) on /metrics.prom", pv, ok)
	}
}

// surface reduces an exposition to what a scraper's configuration can
// depend on: the HELP and TYPE lines and each sample name with its label
// keys.
func surface(body string) map[string]bool {
	values := regexp.MustCompile(`="[^"]*"`)
	out := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "#"):
			out[line] = true
		default:
			out[values.ReplaceAllString(line[:strings.LastIndexByte(line, ' ')], "")] = true
		}
	}
	return out
}

// seriesSurface reduces history series names to their shapes: which task
// is critical in a stage varies run to run, so attribution series compare
// with the task wildcarded.
func seriesSurface(names []string) map[string]bool {
	task := regexp.MustCompile(`attr/[^/]+/`)
	out := map[string]bool{}
	for _, n := range names {
		out[task.ReplaceAllString(n, "attr/*/")] = true
	}
	return out
}

// checkGolden asserts every line of a golden file is in got and logs
// what got adds.
func checkGolden(t *testing.T, file string, got map[string]bool) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		want[line] = true
		if !got[line] {
			t.Errorf("%s: %q was renamed or dropped", file, line)
		}
	}
	var added []string
	for line := range got {
		if !want[line] && !strings.HasPrefix(line, "# HELP") {
			added = append(added, line)
		}
	}
	sort.Strings(added)
	t.Logf("%s: %d additions:\n%s", file, len(added), strings.Join(added, "\n"))
}

// TestFamilyNamesStable holds both daemons' metric names to the lists
// captured on this fixture before the metric table existed (commit
// bb39824): every Prometheus family (name, type, help, label keys) and
// every history series of stapd and of stapnode must still be there.
// Additions are logged (go test -v), never failures.
func TestFamilyNamesStable(t *testing.T) {
	s, node := startSurfaceFixture(t)
	var buf bytes.Buffer
	s.WritePrometheus(&buf)
	checkGolden(t, "testdata/stapd_families.golden", surface(buf.String()))
	checkGolden(t, "testdata/stapd_series.golden", seriesSurface(s.History().Names()))

	// The node's own sampler ticks once a second; wait for its first.
	deadline := time.Now().Add(5 * time.Second)
	for len(node.History().Names()) == 0 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	_, states := s.fed.states(1)
	resp, err := http.Get("http://" + states[0].Addr + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/stapnode_families.golden", surface(string(body)))
	checkGolden(t, "testdata/stapnode_series.golden", seriesSurface(node.History().Names()))
}
