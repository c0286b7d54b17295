package dist

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"pstap/internal/history"
	"pstap/internal/obs"
	"pstap/internal/pipeline"
)

// Node telemetry surface: each stapnode can expose its current (or most
// recent) session's collector over HTTP — Prometheus exposition, the raw
// span journal as a NodeSnapshot, a per-node Perfetto trace, and pprof.
// stapd federates these surfaces into the cluster-wide merged view.

// NodeSnapshot is one node's telemetry export: the session identity, the
// collector's time origin (unix nanoseconds, for cross-node clock
// correction), the task grid, the span journal and counters, and the
// node's own link-plane state. It is what /snapshot.json serves and what
// stapd's federation poller consumes.
type NodeSnapshot struct {
	Node        string          `json:"node"`
	Session     string          `json:"session"`
	Member      int             `json:"member"`
	StartUnixNs int64           `json:"start_unix_ns"`
	Tasks       []obs.TaskMeta  `json:"tasks"`
	Events      []obs.SpanEvent `json:"events"`
	Counters    *obs.Snapshot   `json:"counters,omitempty"`
	Links       []LinkStats     `json:"links,omitempty"`
	// Wire is the node's wire-cost event journal (per-message serialize,
	// transmit, deserialize and writer-wait durations). Durations are
	// single-clock, so the federation merger consumes them without any
	// offset correction.
	Wire []obs.WireEvent `json:"wire,omitempty"`
}

// lastSession returns the most recent wired session (nil before the
// first).
func (n *Node) lastSession() *session {
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	return n.last
}

// Collector returns the most recent session's telemetry collector (nil
// before the first session starts).
func (n *Node) Collector() *obs.Collector {
	if s := n.lastSession(); s != nil {
		return s.col
	}
	return nil
}

// Snapshot exports the most recent session's telemetry as a NodeSnapshot
// (zero-valued before the first session starts).
func (n *Node) Snapshot() NodeSnapshot {
	snap := NodeSnapshot{Node: n.name()}
	s := n.lastSession()
	if s == nil {
		return snap
	}
	snap.Session, snap.Member = s.id, s.member
	snap.StartUnixNs = s.col.Start().UnixNano()
	snap.Tasks = s.col.Tasks()
	snap.Events = s.col.Journal()
	counters := s.col.Snapshot()
	snap.Counters = &counters
	snap.Wire = s.col.WireJournal()
	snap.Links = s.tr.Stats()
	return snap
}

// Bottlenecks builds the node-local attribution report from the most
// recent session's journals. On a node hosting only part of the latency
// path no CPI ever completes locally, so the waterfall view is empty and
// the hop table carries the wire costs measured here; a node hosting the
// whole pipeline reports full waterfalls. The window is the session
// collector's, as for the node's gauges. Nil before the first session.
func (n *Node) Bottlenecks() *obs.BottleneckReport {
	s := n.lastSession()
	if s == nil {
		return nil
	}
	return obs.BuildBottleneckReport(pipeline.AttrConfig(s.man.Assign), s.col.Journal(), s.col.WireJournal(), s.col.Window(), 0)
}

// nodeHistoryInterval is the node sampler's period (a variable so tests
// can tighten the loop).
var nodeHistoryInterval = time.Second

// startHistory spins the node's 1 s metric-history sampler up: the
// session gauges and link stats land in a bounded ring store served as
// /history.json (and federated clock-corrected by stapd). Idempotent;
// no-op on a closed node.
func (n *Node) startHistory() {
	n.histMu.Lock()
	defer n.histMu.Unlock()
	if n.hist != nil {
		return
	}
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return
	}
	n.hist = history.NewStore()
	n.histStop = make(chan struct{})
	n.histDone = make(chan struct{})
	go func(st *history.Store, stop, done chan struct{}) {
		defer close(done)
		tick := time.NewTicker(nodeHistoryInterval)
		defer tick.Stop()
		for {
			select {
			case now := <-tick.C:
				n.sampleHistory(st, now.UnixNano())
			case <-stop:
				return
			}
		}
	}(n.hist, n.histStop, n.histDone)
}

// stopHistory ends the sampler and joins it (no-op when never started).
func (n *Node) stopHistory() {
	n.histMu.Lock()
	stop, done := n.histStop, n.histDone
	n.histStop = nil
	n.histMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// sampleHistory records one tick of every family that has a series.
func (n *Node) sampleHistory(st *history.Store, t int64) {
	obs.ObserveFamilies(n.families(), func(series string, v float64) { st.ObserveName(series, t, v) })
}

// families is the node's metric table: the most recent session's
// collector, gauge and attribution rows, the node's own link plane, and
// the process runtime — the same sub-tables stapd composes.
func (n *Node) families() []obs.Family {
	var fams []obs.Family
	if s := n.lastSession(); s != nil {
		l := []obs.Label{{Name: "replica", Value: "0"}}
		fams = append(fams, obs.CollectorFamilies(l, s.col)...)
		fams = append(fams, obs.GaugeFamilies("stap_", "", nil, l, s.col.Gauges())...)
		// Attribution is scrape-only here (a node hosting part of the
		// latency path completes no CPI locally), so a history tick
		// builds no report.
		for _, f := range obs.AttrFamilies("attr/", l, n.Bottlenecks) {
			f.Series = ""
			fams = append(fams, f)
		}
		fams = append(fams, LinkFamilies("stap_link_", "link/m{member}/", nil, s.tr.Stats())...)
	}
	return append(fams, obs.RuntimeFamilies()...)
}

// LinkFamilies declares the per-link transport rows of one link plane;
// every sample adds the link's member label to l. name prefixes the
// family names and series the history series ("stapd_link_" and
// "r{replica}/link/m{member}/" on stapd, "stap_link_" and
// "link/m{member}/" on a node).
func LinkFamilies(name, series string, l []obs.Label, links []LinkStats) []obs.Family {
	row := func(prom, ser, typ, help string, v func(LinkStats) float64) obs.Family {
		return obs.Family{Name: name + prom, Type: typ, Help: help, Series: series + ser,
			Collect: func(emit func([]obs.Label, float64)) {
				for _, ls := range links {
					emit(append(l[:len(l):len(l)], obs.Label{Name: "member", Value: strconv.Itoa(ls.Member)}), v(ls))
				}
			}}
	}
	seconds := func(ns int64) float64 { return float64(ns) / float64(time.Second) }
	return []obs.Family{
		row("messages_sent_total", "messages_sent_total", "counter", "Data frames sent per distributed replica link.",
			func(ls LinkStats) float64 { return float64(ls.MsgsSent) }),
		row("messages_received_total", "messages_recv_total", "counter", "Data frames received per distributed replica link.",
			func(ls LinkStats) float64 { return float64(ls.MsgsRecv) }),
		row("bytes_sent_total", "bytes_sent_total", "counter", "Bytes written per distributed replica link.",
			func(ls LinkStats) float64 { return float64(ls.BytesSent) }),
		row("bytes_received_total", "bytes_recv_total", "counter", "Bytes read per distributed replica link.",
			func(ls LinkStats) float64 { return float64(ls.BytesRecv) }),
		row("rtt_seconds", "rtt_seconds", "gauge", "Heartbeat round-trip EWMA per distributed replica link.",
			func(ls LinkStats) float64 { return seconds(ls.RTTNs) }),
		row("clock_offset_seconds", "offset_seconds", "gauge", "Estimated peer clock minus local clock per distributed replica link (heartbeat midpoint EWMA).",
			func(ls LinkStats) float64 { return seconds(ls.OffsetNs) }),
	}
}

// History returns the node's metric-history store (nil before ObsMux
// started the sampler).
func (n *Node) History() *history.Store {
	n.histMu.Lock()
	defer n.histMu.Unlock()
	return n.hist
}

// ObsMux builds the node's telemetry HTTP handler (and starts the
// node's metric-history sampler):
//
//	/snapshot.json     — the NodeSnapshot (federation feed)
//	/metrics.prom      — Prometheus exposition of the node's metric table
//	                     (session collector, links, process runtime)
//	/trace.json        — this node's spans as a Perfetto-loadable trace
//	                     (gzip-encoded when the client accepts it)
//	/bottlenecks.json  — the node-local attribution report
//	/history.json      — ring time-series history of the same table's
//	                     series (1 s / 10 s / 60 s tiers)
//	/debug/pprof/      — the standard Go profiling endpoints
func (n *Node) ObsMux() *http.ServeMux {
	n.startHistory()
	mux := http.NewServeMux()
	mux.HandleFunc("/history.json", func(w http.ResponseWriter, r *http.Request) {
		st := n.History()
		if st == nil {
			http.Error(w, "dist: history sampler not running", http.StatusServiceUnavailable)
			return
		}
		st.Handler().ServeHTTP(w, r)
	})
	mux.HandleFunc("/snapshot.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(n.Snapshot())
	})
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.WriteFamilies(w, n.families())
	})
	mux.Handle("/trace.json", obs.GzipHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		col := n.Collector()
		if col == nil {
			w.Write([]byte(`{"traceEvents":[]}` + "\n"))
			return
		}
		obs.WriteChromeTrace(w, col.Journal(), col.Tasks())
	})))
	mux.HandleFunc("/bottlenecks.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		rep := n.Bottlenecks()
		if rep == nil {
			rep = &obs.BottleneckReport{TolFrac: obs.AttrSumTolFrac, SumWithinTol: true}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
