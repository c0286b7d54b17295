package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pstap/internal/history"
	"pstap/internal/obs"
	"pstap/internal/slo"
)

// Metrics history and SLO evaluation: a background sampler renders the
// server's metric table (families, prom.go) once per second — every
// family that declares a series — into a bounded internal/history ring
// store (1 s raw, 10 s / 60 s rollups). The same tick then evaluates
// the configured SLOs as multi-window burn rates (internal/slo); a
// breach-start dumps a flight record with the faulted replica's recent
// history embedded, and with Config.SLOReplan the firing set feeds the
// replanner's drift trigger.

// servePrefix is where the serve-level series live; replica slot i's live
// under "r<i>/" (attribution under "r<i>/attr/<task>/...", links under
// "r<i>/link/m<M>/...", federated node health under "r<i>/node/m<M>/up",
// cluster-merged gauges under "r<i>/cluster/...") and the process runtime
// under "runtime/". The table's Series templates name them.
const servePrefix = "serve/"

// sampler is the server's history/SLO loop state.
type sampler struct {
	store  *history.Store
	engine *slo.Engine // nil without configured SLOs

	stop chan struct{}
	done chan struct{}
}

// startSampler builds the store (and engine, when SLOs are configured)
// and spins the 1 s sampling loop up. Called from New after the pool is
// built; errors come only from invalid SLO specs.
func (s *Server) startSampler() error {
	sa := &sampler{
		store: history.NewStore(s.cfg.HistoryConfig),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if len(s.cfg.SLOs) > 0 {
		eng, err := slo.NewEngine(sa.store, s.cfg.SLOs)
		if err != nil {
			return err
		}
		eng.OnBreachStart = s.sloBreach
		sa.engine = eng
	}
	s.sampler = sa
	go func() {
		defer close(sa.done)
		tick := time.NewTicker(s.cfg.HistoryInterval)
		defer tick.Stop()
		for {
			select {
			case now := <-tick.C:
				s.sampleOnce(now)
				if sa.engine != nil {
					sa.engine.Evaluate(now)
				}
			case <-sa.stop:
				return
			}
		}
	}()
	return nil
}

// stopSampler ends the sampling loop and joins it.
func (s *Server) stopSampler() {
	if s.sampler == nil {
		return
	}
	close(s.sampler.stop)
	<-s.sampler.done
}

// History returns the server's metric history store.
func (s *Server) History() *history.Store { return s.sampler.store }

// sampleOnce records one tick of every family that has a series.
func (s *Server) sampleOnce(now time.Time) {
	t := now.UnixNano()
	obs.ObserveFamilies(s.families(), func(series string, v float64) { s.sampler.store.ObserveName(series, t, v) })
}

// historyLeadUp dumps the breach/fault lead-up for one replica slot: the
// last 5 minutes of the slot's series plus the serve-level series at the
// 10 s tier — the payload embedded in flight records.
func (s *Server) historyLeadUp(slotIdx int) map[string][]history.Point {
	if s.sampler == nil {
		return nil
	}
	st := s.sampler.store
	from := time.Now().Add(-5 * time.Minute).UnixNano()
	out := st.Dump("r"+strconv.Itoa(slotIdx)+"/", history.Tier10, from, 0)
	for name, pts := range st.Dump(servePrefix, history.Tier10, from, 0) {
		out[name] = pts
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// sloBreach is the engine's breach-start hook: it dumps a flight record
// for the replica the breached series belongs to (the pool's primary
// slot when the series is not replica-scoped), with the lead-up history
// embedded.
func (s *Server) sloBreach(a slo.Alert) {
	s.cfg.Logf("stapd: SLO %q breached: series %s last=%.6g threshold=%.6g (fast burn %.2f, slow burn %.2f)",
		a.Spec.Name, a.Spec.Series, a.LastValue, a.Spec.Threshold, a.Fast.BurnRate, a.Slow.BurnRate)
	slot := s.planSlot()
	if idx, ok := seriesSlot(a.Spec.Series); ok && idx < len(s.slots) {
		slot = s.slots[idx]
	}
	s.flightRecord(slot, fmt.Errorf("slo breach: %s (series %s, burn fast=%.2f slow=%.2f)",
		a.Spec.Name, a.Spec.Series, a.Fast.BurnRate, a.Slow.BurnRate))
}

// seriesSlot extracts the replica index from a "r<i>/..." series name.
func seriesSlot(series string) (int, bool) {
	if !strings.HasPrefix(series, "r") {
		return 0, false
	}
	rest, _, ok := strings.Cut(series[1:], "/")
	if !ok {
		return 0, false
	}
	idx, err := strconv.Atoi(rest)
	if err != nil || idx < 0 {
		return 0, false
	}
	return idx, true
}

// sloPressure reports whether any firing alert argues the pipeline
// itself is out of spec — a latency or throughput SLO, the two the
// replanner can actually buy back with a better placement (an RTT or
// P_d breach replans nothing).
func (s *Server) sloPressure() bool {
	if s.sampler == nil || s.sampler.engine == nil {
		return false
	}
	for _, a := range s.sampler.engine.Alerts() {
		if !a.Firing {
			continue
		}
		switch a.Spec.Kind {
		case slo.LatencyBound, slo.ThroughputFloor:
			return true
		}
	}
	return false
}

// Alerts returns the SLO engine's current alert states (nil without
// configured SLOs).
func (s *Server) Alerts() []slo.Alert {
	if s.sampler == nil || s.sampler.engine == nil {
		return nil
	}
	return s.sampler.engine.Alerts()
}

// AlertsResponse is the /alerts.json payload.
type AlertsResponse struct {
	NowUnixNs int64       `json:"now_unix_ns"`
	Firing    int         `json:"firing"`
	Alerts    []slo.Alert `json:"alerts"`
}

// AlertsHandler serves the SLO alert states — mount as /alerts.json.
func (s *Server) AlertsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		resp := AlertsResponse{NowUnixNs: time.Now().UnixNano()}
		for _, a := range s.Alerts() {
			resp.Alerts = append(resp.Alerts, a)
			if a.Firing {
				resp.Firing++
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp)
	})
}

// HistoryHandler serves the server's own history store as /history.json
// and federates node stores: with ?node=<slot>/<member> the query is
// proxied to that stapnode's /history.json and the returned timestamps
// are shifted onto the coordinator's clock by the link's offset estimate
// (node clock − coordinator clock), the same correction the merged trace
// and cluster gauges use.
func (s *Server) HistoryHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if node := r.URL.Query().Get("node"); node != "" {
			s.proxyNodeHistory(w, r, node)
			return
		}
		s.sampler.store.Handler().ServeHTTP(w, r)
	})
}

// proxyNodeHistory fetches one federated node's history, clock-corrected.
func (s *Server) proxyNodeHistory(w http.ResponseWriter, r *http.Request, node string) {
	slotStr, memberStr, ok := strings.Cut(node, "/")
	if !ok {
		http.Error(w, "serve: node= wants <slot>/<member>", http.StatusBadRequest)
		return
	}
	slotIdx, err1 := strconv.Atoi(slotStr)
	member, err2 := strconv.Atoi(memberStr)
	if err1 != nil || err2 != nil || s.fed == nil {
		http.Error(w, "serve: unknown node", http.StatusNotFound)
		return
	}
	members, states := s.fed.states(slotIdx)
	var st *nodeState
	for i, m := range members {
		if m == member {
			st = &states[i]
			break
		}
	}
	if st == nil || st.Addr == "" {
		http.Error(w, "serve: unknown node", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	q.Del("node")
	resp, err := s.fed.client.Get("http://" + st.Addr + "/history.json?" + q.Encode())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		http.Error(w, "serve: node history: "+resp.Status, http.StatusBadGateway)
		return
	}
	var rr history.RangeResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	// Node clock − coordinator clock = OffsetNs; subtracting it moves the
	// node's timestamps onto the coordinator's timeline.
	for _, pts := range rr.Series {
		for i := range pts {
			pts[i].T -= st.OffsetNs
		}
	}
	rr.NowUnixNs -= st.OffsetNs
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(rr)
}

// sloFamilies declares the SLO burn-rate and firing-alert rows. All are
// scrape-only: they are derived from the history store, not fed to it.
func sloFamilies(alerts []slo.Alert) []obs.Family {
	const burnHelp = "Error-budget burn rate per SLO and window (1.0 = spending exactly the budget)."
	var fams []obs.Family
	firing := 0
	for _, a := range alerts {
		l := obs.Label{Name: "slo", Value: a.Spec.Name}
		fams = append(fams,
			obs.Sample("stapd_slo_burn_rate", "gauge", burnHelp, "", []obs.Label{l, {Name: "window", Value: "fast"}}, a.Fast.BurnRate),
			obs.Sample("stapd_slo_burn_rate", "gauge", burnHelp, "", []obs.Label{l, {Name: "window", Value: "slow"}}, a.Slow.BurnRate),
			obs.Sample("stapd_slo_firing", "gauge", "Whether each SLO's alert is currently firing.", "", []obs.Label{l}, b2f(a.Firing)),
		)
		if a.Firing {
			firing++
		}
	}
	return append(fams, obs.Sample("stapd_alerts_firing", "gauge", "Number of SLO alerts currently firing.", "", nil, float64(firing)))
}
