package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"pstap/internal/dist"
	"pstap/internal/obs"
	"pstap/internal/pipeline"
)

// Node metric federation: when the pool has distributed slots, stapd
// periodically pulls each stapnode's /snapshot.json (the address every
// node advertised on its ready frame) and pairs it with the coordinator
// link's clock-offset estimate. The federated state feeds three surfaces:
// per-node stapd_node_* series on /metrics.prom, the merged
// offset-corrected Perfetto trace on /cluster/trace.json, and the live
// cluster-wide eq. (1)-(3) gauges computed over the merged timeline.

// nodePollInterval is how often the federation poller refreshes each
// node's snapshot (a variable so tests can tighten the loop).
var nodePollInterval = time.Second

// nodeState is the last federated view of one node: its snapshot, the
// coordinator link's clock-offset and RTT estimates at poll time, and
// whether the last fetch succeeded (a stale snapshot is kept for
// post-mortems when a node stops answering).
type nodeState struct {
	Addr     string
	Snap     dist.NodeSnapshot
	OffsetNs int64 // node clock − coordinator clock (link EWMA)
	RTTNs    int64
	At       time.Time
	Up       bool
}

// federation is the background poller over every distributed slot's nodes.
type federation struct {
	client *http.Client

	mu    sync.Mutex
	nodes map[int]map[int]*nodeState // slot index → member → state

	stop chan struct{}
	wg   sync.WaitGroup
}

// startFederation spins the poller up; called from New when the pool has
// distributed slots.
func (s *Server) startFederation() {
	s.fed = &federation{
		// Keep-alives off: polls are 1s apart and idle connections would
		// outlive shutdown as background goroutines.
		client: &http.Client{
			Timeout:   2 * time.Second,
			Transport: &http.Transport{DisableKeepAlives: true},
		},
		nodes: make(map[int]map[int]*nodeState),
		stop:  make(chan struct{}),
	}
	s.fed.wg.Add(1)
	go func() {
		defer s.fed.wg.Done()
		tick := time.NewTicker(nodePollInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.pollNodes()
			case <-s.fed.stop:
				return
			}
		}
	}()
}

// stopFederation ends the poller and joins it. Safe without one running.
func (s *Server) stopFederation() {
	if s.fed == nil {
		return
	}
	close(s.fed.stop)
	s.fed.wg.Wait()
}

// pollNodes refreshes every distributed slot's node states.
func (s *Server) pollNodes() {
	for _, slot := range s.slots {
		if slot.cluster == nil {
			continue
		}
		rep, ok := slot.record().rep.(*dist.Replica)
		if !ok || rep == nil {
			continue
		}
		offsets := make(map[int]dist.LinkStats)
		for _, ls := range rep.LinkStats() {
			offsets[ls.Member] = ls
		}
		for member, addr := range rep.NodeObs() {
			st := s.fed.state(slot.idx, member)
			s.fed.mu.Lock()
			st.Addr = addr
			if ls, ok := offsets[member]; ok {
				st.OffsetNs, st.RTTNs = ls.OffsetNs, ls.RTTNs
			}
			s.fed.mu.Unlock()
			var snap dist.NodeSnapshot
			if err := s.fetchSnapshot(addr, &snap); err != nil {
				s.fed.mu.Lock()
				st.Up = false
				s.fed.mu.Unlock()
				continue
			}
			s.fed.mu.Lock()
			st.Snap = snap
			st.At = time.Now()
			st.Up = true
			s.fed.mu.Unlock()
		}
	}
}

// state returns (creating as needed) the federation entry for one node.
func (f *federation) state(slot, member int) *nodeState {
	f.mu.Lock()
	defer f.mu.Unlock()
	byMember := f.nodes[slot]
	if byMember == nil {
		byMember = make(map[int]*nodeState)
		f.nodes[slot] = byMember
	}
	st := byMember[member]
	if st == nil {
		st = &nodeState{}
		byMember[member] = st
	}
	return st
}

// states returns one slot's node states in member order, copied.
func (f *federation) states(slot int) (members []int, out []nodeState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for m := range f.nodes[slot] {
		members = append(members, m)
	}
	sort.Ints(members)
	for _, m := range members {
		out = append(out, *f.nodes[slot][m])
	}
	return members, out
}

// snapshots returns one slot's last node snapshots (for flight records).
func (f *federation) snapshots(slot int) []dist.NodeSnapshot {
	_, states := f.states(slot)
	out := make([]dist.NodeSnapshot, 0, len(states))
	for _, st := range states {
		if st.Snap.Session != "" {
			out = append(out, st.Snap)
		}
	}
	return out
}

// fetchSnapshot pulls one node's /snapshot.json.
func (s *Server) fetchSnapshot(addr string, into *dist.NodeSnapshot) error {
	resp, err := s.fed.client.Get("http://" + addr + "/snapshot.json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: node %s snapshot: %s", addr, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// correctedEvents shifts one node's span events onto the coordinator
// collector's timeline: event offsets are relative to the node collector's
// epoch, so each timestamp moves by the epoch difference minus the
// link-estimated clock offset (node clock − coordinator clock).
func correctedEvents(st nodeState, coordStartUnixNs int64) []obs.SpanEvent {
	shift := st.Snap.StartUnixNs - st.OffsetNs - coordStartUnixNs
	out := make([]obs.SpanEvent, len(st.Snap.Events))
	for i, ev := range st.Snap.Events {
		ev.T0 += shift
		ev.T1 += shift
		ev.T2 += shift
		ev.T3 += shift
		out[i] = ev
	}
	return out
}

// clusterEvents merges one distributed slot's federated node journals
// onto the coordinator collector's timeline.
func (s *Server) clusterEvents(slot *replicaSlot) []obs.SpanEvent {
	col := slot.record().col
	if col == nil || s.fed == nil {
		return nil
	}
	coordStart := col.Start().UnixNano()
	var merged []obs.SpanEvent
	_, states := s.fed.states(slot.idx)
	for _, st := range states {
		merged = append(merged, correctedEvents(st, coordStart)...)
	}
	return merged
}

// clusterGauges evaluates the paper's eq. (1)-(3) over one distributed
// slot's merged, clock-corrected timeline — the cluster-wide analogue of a
// single collector's live gauges.
func (s *Server) clusterGauges(slot *replicaSlot) obs.GaugeSet {
	ocfg := pipeline.DefaultObsConfig(s.cfg.Assign)
	return obs.ComputeGauges(ocfg.Tasks, s.cfg.ObsWindow, ocfg.LatencyPath, s.clusterEvents(slot))
}

// WriteClusterTrace writes every distributed slot's merged trace as one
// Perfetto-loadable Chrome trace. Each node's tasks render under an
// "rR/nM/" process-name prefix (replica slot R, member M) with disjoint
// pid ranges; timestamps are clock-corrected onto each slot coordinator's
// timeline, so cross-node spans of one CPI line up.
func (s *Server) WriteClusterTrace(w io.Writer) error {
	var ct obs.ChromeTrace
	pidBase := 0
	for _, slot := range s.slots {
		if slot.cluster == nil || s.fed == nil {
			continue
		}
		col := slot.record().col
		if col == nil {
			continue
		}
		coordStart := col.Start().UnixNano()
		members, states := s.fed.states(slot.idx)
		for i, st := range states {
			tasks := st.Snap.Tasks
			if len(tasks) == 0 {
				tasks = col.Tasks()
			}
			prefix := fmt.Sprintf("r%d/n%d/", slot.idx, members[i])
			ct.AddEvents(correctedEvents(st, coordStart), tasks, pidBase, prefix)
			pidBase += len(tasks)
		}
	}
	return ct.Write(w)
}

// ClusterTraceHandler serves WriteClusterTrace — mount as
// /cluster/trace.json to download the merged cross-node trace. The
// payload is gzip-encoded when the client accepts it.
func (s *Server) ClusterTraceHandler() http.Handler {
	return obs.GzipHandler(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="stapd.cluster.trace.json"`)
		_ = s.WriteClusterTrace(w)
	}))
}

// clusterGaugeHelp words the shared gauge rows for the merged timeline.
var clusterGaugeHelp = []string{
	"Mean per-CPI phase time per task over the merged cross-node window.",
	"Paper eq. 1 throughput over the merged cross-node window.",
	"Paper eq. 2 latency bound over the merged cross-node window.",
	"Paper eq. 3 measured latency over the merged clock-corrected timeline.",
	"Measured completion-gap throughput over the merged cross-node window.",
	"Distinct CPIs inside the merged cluster gauge window.",
}

// clusterFamilies declares one distributed slot's federated per-node
// rows and its cluster-wide merged-timeline gauges; l is the slot's
// replica label. The node clock offset and RTT are the link rows'
// quantities as of the last poll, so only node health gets a series.
func (s *Server) clusterFamilies(slot *replicaSlot, l []obs.Label) []obs.Family {
	var fams []obs.Family
	members, states := s.fed.states(slot.idx)
	for i, st := range states {
		var cpis int64
		if st.Snap.Counters != nil {
			for _, ts := range st.Snap.Counters.Tasks {
				for _, ws := range ts.Workers {
					cpis += ws.CPIs
				}
			}
		}
		nl := append(l[:len(l):len(l)], obs.Label{Name: "node", Value: strconv.Itoa(members[i])})
		fams = append(fams,
			obs.Sample("stapd_node_up", "gauge", "Whether the node's last telemetry poll succeeded.", "r{replica}/node/m{node}/up", nl, b2f(st.Up)),
			obs.Sample("stapd_node_clock_offset_seconds", "gauge", "Estimated node clock minus coordinator clock (heartbeat midpoint EWMA).", "", nl, float64(st.OffsetNs)/float64(time.Second)),
			obs.Sample("stapd_node_rtt_seconds", "gauge", "Heartbeat round-trip EWMA to the node.", "", nl, float64(st.RTTNs)/float64(time.Second)),
			obs.Sample("stapd_node_cpis_total", "counter", "CPIs processed on the node's hosted workers (federated).", "", nl, float64(cpis)),
		)
	}
	return append(fams, obs.GaugeFamilies("stapd_cluster_", "r{replica}/cluster/", clusterGaugeHelp, l, s.clusterGauges(slot))...)
}
