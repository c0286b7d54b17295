package dist

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"pstap/internal/history"
	"pstap/internal/leakcheck"
	"pstap/internal/obs"
	"pstap/internal/radar"
)

// TestNodeSurfacesAgree is serve's TestSurfacesAgree for a stapnode:
// after a job and one sampler tick, every family of the node's table is
// on /metrics.prom, every family with a Series is in the node's history
// store with the value the exposition shows, the store holds nothing
// undeclared — and the link plane the node always sampled into history
// is now on its exposition too.
func TestNodeSurfacesAgree(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	nodes, addrs := startNodes(t, 2)
	node := nodes[0]
	mux := node.ObsMux() // starts the sampler, so History() is live
	cfg := testCluster(t, addrs, sc)
	rep, err := cfg.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, err := rep.ProcessJob(makeJob(sc, 4)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // a few heartbeats: RTT estimates
	st := node.History()
	node.sampleHistory(st, time.Now().UnixNano())

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.prom", nil))
	body := rec.Body.String()
	sample := func(name string, labels []obs.Label) (float64, bool) {
		var key strings.Builder
		obs.PromWriter{W: &key}.Sample(name, labels, 0)
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, strings.TrimSuffix(key.String(), "0\n")); ok {
				v, err := strconv.ParseFloat(rest, 64)
				return v, err == nil
			}
		}
		return 0, false
	}

	declared := map[string]bool{}
	for _, f := range node.families() {
		if !strings.Contains(body, "# TYPE "+f.Name+" "+f.Type+"\n") {
			t.Errorf("family %s (%s) has no TYPE line on /metrics.prom", f.Name, f.Type)
		}
		if f.Series == "" {
			continue
		}
		matched := 0
		f.Collect(func(labels []obs.Label, _ float64) {
			var series string
			obs.ObserveFamilies([]obs.Family{obs.Sample(f.Name, f.Type, f.Help, f.Series, labels, 0)},
				func(name string, _ float64) { series = name })
			declared[series] = true
			pts := st.Range(series, history.Tier0, 0, 0)
			pv, ok := sample(f.Name, labels)
			if series == "" || len(pts) == 0 || !ok {
				t.Errorf("family %s labels %v: series %q has %d points, on exposition: %v", f.Name, labels, series, len(pts), ok)
				return
			}
			// Message counters stand still after the job; byte counters
			// (heartbeats), runtime counters and gauges may have moved
			// between the tick and the scrape.
			hv := pts[len(pts)-1].Mean
			if strings.Contains(f.Name, "_link_messages_") && pv != hv {
				t.Errorf("family %s series %q: history %v, exposition %v", f.Name, series, hv, pv)
			}
			if f.Type == "counter" && pv < hv {
				t.Errorf("counter %s series %q went backwards: history %v, exposition %v", f.Name, series, hv, pv)
			}
			matched++
		})
		if matched == 0 {
			t.Errorf("family %s declares series %q but none is in the store", f.Name, f.Series)
		}
	}
	for _, name := range st.Names() {
		if !declared[name] {
			t.Errorf("history series %q is declared by no family", name)
		}
	}
	if v, ok := sample("stap_link_bytes_sent_total", []obs.Label{{Name: "member", Value: "2"}}); !ok || v <= 0 {
		t.Errorf("node exposition has no nonzero stap_link_bytes_sent_total to member 2 (%v, %v):\n%s", v, ok, body)
	}
}
