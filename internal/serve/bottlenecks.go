package serve

import (
	"encoding/json"
	"net/http"

	"pstap/internal/obs"
	"pstap/internal/pipeline"
)

// Critical-path attribution surface: per-slot bottleneck reports built by
// obs.BuildBottleneckReport over each replica's journals. An in-process
// slot attributes its own collector's spans and wire events (the latter
// empty — no wire, no wire tax); a distributed slot walks the federated,
// clock-corrected cluster journal merged with the coordinator's, plus the
// wire-cost events from every node and the coordinator transport (wire
// durations are single-clock, so they merge without offset correction).

// slotSpans returns the span journal attribution walks for one slot: the
// local collector's journal, extended for distributed slots with the
// clock-corrected federated node journals.
func (s *Server) slotSpans(slot *replicaSlot) []obs.SpanEvent {
	col := slot.record().col
	if col == nil {
		return nil
	}
	spans := col.Journal()
	if slot.cluster != nil && s.fed != nil {
		spans = append(spans, s.clusterEvents(slot)...)
	}
	return spans
}

// slotWire returns one slot's merged wire-cost journal: the coordinator
// collector's events plus, for a distributed slot, every federated node's.
func (s *Server) slotWire(slot *replicaSlot) []obs.WireEvent {
	var wire []obs.WireEvent
	if col := slot.record().col; col != nil {
		wire = col.WireJournal()
	}
	if slot.cluster == nil || s.fed == nil {
		return wire
	}
	_, states := s.fed.states(slot.idx)
	for _, st := range states {
		wire = append(wire, st.Snap.Wire...)
	}
	return wire
}

// slotBottlenecks builds one slot's attribution report over the gauge
// window.
func (s *Server) slotBottlenecks(slot *replicaSlot) *obs.BottleneckReport {
	return obs.BuildBottleneckReport(pipeline.AttrConfig(s.cfg.Assign),
		s.slotSpans(slot), s.slotWire(slot), s.cfg.ObsWindow, 0)
}

// BottleneckReport builds the report for the server's primary slot — the
// first distributed slot when the pool has one (where the wire tax lives),
// the first slot otherwise. Same slot choice as /plan.
func (s *Server) BottleneckReport() *obs.BottleneckReport {
	return s.slotBottlenecks(s.planSlot())
}

// BottlenecksHandler serves BottleneckReport as JSON — mount as
// /bottlenecks.json beside /metrics. The payload shape matches stapnode's
// endpoint, so staptop points at either daemon unchanged.
func (s *Server) BottlenecksHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.BottleneckReport())
	})
}
