package serve

import (
	"time"

	"pstap/internal/obs"
)

// A replica slot's life is one record (slotState), one pure transition
// function over it (next) and one place that applies a transition and
// its side effects (moveSlot). DESIGN.md §7 holds the states × events
// table this file implements.

// Slot phases (the zero value is live: a fresh pool starts healthy) and
// dispatch circuit-breaker states.
const (
	phaseLive int32 = iota
	phaseRestarting
	phaseDead
)
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

// moveNames are the destinations stapd_slot_transitions_total counts: a
// phase, a breaker state (at moveBreaker + state) or the fallback grant.
// The first six double as the JSON health and breaker strings.
var moveNames = [...]string{"live", "restarting", "dead", "closed", "open", "half-open", "fallback"}

const moveBreaker, moveFallback = 3, 6

func healthName(phase int32) string  { return moveNames[phase] }
func breakerName(state int32) string { return moveNames[moveBreaker+state] }

// slotState is everything about a slot that changes over its life,
// guarded by replicaSlot.mu and written only by moveSlot.
type slotState struct {
	phase int32
	// gen counts the slot's replica incarnations; rep and col are the
	// current one and its telemetry collector. A fault or planned event
	// observed on an older one is a no-op, so a placement roll and a job
	// failure seen on the same incarnation cannot recycle it twice.
	gen int64
	rep Replica
	col *obs.Collector
	// breaker gates the slot's job dispatch: after BreakerThreshold fatal
	// faults in a row (faults; a completed job zeroes it) it opens at
	// openedAt and the slot's loop stops pulling work for
	// BreakerCooldown; the next pull is a half-open probe whose outcome
	// closes or reopens it. A flapping slot then costs one probe per
	// cooldown instead of one job and one restart per fault.
	breaker  int32
	faults   int
	openedAt time.Time
	// restarts counts the rebuild attempts charged against budget:
	// RestartBudget, plus once more when fallback is granted — to a
	// cluster-bound slot (dist, fixed at New) that exhausts its budget
	// under Config.FallbackInproc and rebuilds in-process from then on.
	restarts, budget int
	dist, fallback   bool
	// free marks the next rebuild attempt as taken without backoff and
	// without charge: the first one after a planned event.
	free bool
	// nextAttempt is when a restarting slot next tries to rebuild, the
	// basis of honest retry-after hints while nothing is live.
	nextAttempt time.Time
}

type slotEventKind int

const (
	evFault           slotEventKind = iota // fatal replica error under a job
	evPlanned                              // nobody's fault: a replan roll, or a job's own deadline aborting the stream
	evJobOK                                // a job completed without a fatal fault
	evCooldownElapsed                      // an open breaker's park ended: the next job is the probe
	evRebuilt                              // a restarting slot's rebuild attempt succeeded
	evRebuildFailed                        // ... or failed
	evStopping                             // hard shutdown interrupted a restart backoff
)

// slotEvent is one input of next.
type slotEvent struct {
	kind slotEventKind
	at   time.Time // stamped by moveSlot
	gen  int64     // fault, planned: the generation the event was observed on
	// flaky (fault) is link-plane evidence that the trouble is
	// environmental: the breaker trips one fault early. handedOff (fault)
	// says the job went to failover and survived: nothing to black-box.
	flaky, handedOff bool
	cause            error          // fault: the flight record's reason
	rep              Replica        // rebuilt: the fresh replica
	col              *obs.Collector // ... and its collector
}

// slotEffects is what a transition asks of its caller beyond storing the
// new state.
type slotEffects struct {
	applied bool          // fault, planned: false on a stale generation or a slot not live
	record  bool          // write the fault's flight record
	wait    time.Duration // backoff before the next rebuild attempt
}

// next is the slot transition function: pure, so the whole table is
// testable without a server. It reads the clock only through ev.at.
func next(st slotState, ev slotEvent, cfg *Config) (slotState, slotEffects) {
	var eff slotEffects
	switch ev.kind {
	case evJobOK:
		st.faults = 0
		st.breaker = breakerClosed
		return st, eff
	case evCooldownElapsed:
		if st.breaker == breakerOpen {
			st.breaker = breakerHalfOpen
		}
		return st, eff
	case evStopping:
		if st.phase == phaseRestarting {
			st.phase = phaseDead
		}
		return st, eff
	case evFault, evPlanned:
		if st.phase != phaseLive || ev.gen != st.gen {
			return st, eff
		}
		eff.applied = true
		st.phase = phaseRestarting
		st.free = ev.kind == evPlanned
		if ev.kind == evFault {
			eff.record = !ev.handedOff
			st.faults++
			limit := cfg.BreakerThreshold
			if ev.flaky && limit > 1 {
				limit--
			}
			if st.breaker == breakerHalfOpen || st.faults >= limit {
				st.breaker = breakerOpen
				st.openedAt = ev.at
			}
		}
	case evRebuilt, evRebuildFailed:
		if st.phase != phaseRestarting {
			return st, eff
		}
		if !st.free {
			st.restarts++
		}
		st.free = false
		if ev.kind == evRebuilt {
			st.phase = phaseLive
			st.gen++
			st.rep, st.col = ev.rep, ev.col
			return st, eff
		}
	}
	// Restarting, with a rebuild attempt ahead: out of budget the slot
	// falls back in-process on one fresh budget, or dies; otherwise the
	// attempt is due after an exponential backoff (at once when free).
	if st.restarts >= st.budget {
		if !st.dist || st.fallback || !cfg.FallbackInproc {
			st.phase = phaseDead
			return st, eff
		}
		st.fallback = true
		st.budget += cfg.RestartBudget
	}
	if !st.free {
		eff.wait = cfg.RestartBackoff << uint(min(st.restarts, 10))
	}
	st.nextAttempt = ev.at.Add(eff.wait)
	return st, eff
}

// moveSlot applies one event to the slot's record. It is the only writer
// of the record and of Server.live after New, and the one place a move
// is counted, logged with the slot's effective budget, and — for a fault
// whose job was not handed off — black-boxed in a flight record (before
// recycle discards the instance).
func (s *Server) moveSlot(slot *replicaSlot, ev slotEvent) (slotState, slotEffects) {
	ev.at = time.Now()
	slot.mu.Lock()
	was := slot.state
	st, eff := next(was, ev, &s.cfg)
	slot.state = st
	switch {
	case was.phase == phaseLive && st.phase != phaseLive:
		s.live.Add(-1)
	case was.phase != phaseLive && st.phase == phaseLive:
		s.live.Add(1)
	}
	slot.mu.Unlock()
	if st == was {
		return st, eff
	}
	if eff.record {
		s.flightRecord(slot, ev.cause)
	}
	stats := s.metrics.replicas[slot.idx]
	s.metrics.replicaRestarts.Add(int64(st.restarts - was.restarts))
	if st.phase != was.phase {
		stats.moves[st.phase].Add(1)
	}
	if st.breaker != was.breaker {
		stats.moves[moveBreaker+st.breaker].Add(1)
	}
	if st.fallback != was.fallback {
		stats.moves[moveFallback].Add(1)
	}
	s.cfg.Logf("stapd: replica %d %s (restart %d, budget %d, in-process fallback %v), breaker %s (fault run %d)",
		slot.idx, healthName(st.phase), st.restarts, st.budget, st.fallback, breakerName(st.breaker), st.faults)
	return st, eff
}
