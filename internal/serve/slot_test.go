package serve

import (
	"testing"
	"time"
)

// TestSlotLifeTransitions walks the slot transition table (DESIGN.md §7)
// through next alone: no server, no sockets, no clock.
func TestSlotLifeTransitions(t *testing.T) {
	const backoff = 10 * time.Millisecond
	t0 := time.Unix(1000, 0)
	cfg := func(threshold int, fallback bool) *Config {
		return &Config{BreakerThreshold: threshold, RestartBudget: 2, RestartBackoff: backoff, FallbackInproc: fallback}
	}
	start, fresh := slotState{budget: 2}, slotState{phase: phaseLive, budget: 2}
	fault, flaky := slotEvent{kind: evFault, at: t0}, slotEvent{kind: evFault, at: t0, flaky: true}
	planned, rebuilt, failed := slotEvent{kind: evPlanned, at: t0}, slotEvent{kind: evRebuilt, at: t0}, slotEvent{kind: evRebuildFailed, at: t0}
	// run feeds events through next, re-stamping fault and planned events
	// with the generation they would have been observed on.
	run := func(st slotState, c *Config, evs ...slotEvent) (slotState, slotEffects) {
		var eff slotEffects
		for _, ev := range evs {
			if ev.kind == evFault || ev.kind == evPlanned {
				ev.gen = st.gen
			}
			st, eff = next(st, ev, c)
		}
		return st, eff
	}

	cases := []struct {
		name  string
		start slotState
		cfg   *Config
		evs   []slotEvent
		check func(t *testing.T, st slotState, eff slotEffects)
	}{
		{"the zero record is a fresh slot whose first build is free", start, cfg(3, false), []slotEvent{rebuilt},
			func(t *testing.T, st slotState, _ slotEffects) {
				if st.phase != phaseLive || st.gen != 1 || st.restarts != 0 || st.breaker != breakerClosed {
					t.Errorf("got %+v", st)
				}
			}},
		{"a failed first build is retried after one backoff", start, cfg(3, false), []slotEvent{failed},
			func(t *testing.T, st slotState, _ slotEffects) {
				if st.phase != phaseRestarting || st.restarts != 0 || !st.charged || !st.nextAttempt.Equal(t0.Add(backoff)) {
					t.Errorf("got %+v", st)
				}
			}},
		{"a start that never builds spends the budget", start, cfg(3, false), []slotEvent{failed, failed, failed},
			func(t *testing.T, st slotState, _ slotEffects) {
				if st.phase != phaseDead || st.restarts != 2 || st.gen != 0 {
					t.Errorf("got %+v", st)
				}
			}},
		{"a dist start that never builds falls back in-process", slotState{budget: 2, dist: true}, cfg(3, true), []slotEvent{failed, failed, failed, rebuilt},
			func(t *testing.T, st slotState, _ slotEffects) {
				if st.phase != phaseLive || !st.fallback || st.budget != 4 || st.restarts != 3 || st.gen != 1 {
					t.Errorf("got %+v", st)
				}
			}},
		{"a fault or roll on a slot never live is a no-op", start, cfg(1, false), []slotEvent{fault, planned},
			func(t *testing.T, st slotState, eff slotEffects) {
				if st != start || eff.applied {
					t.Errorf("got %+v, %+v", st, eff)
				}
			}},
		{"two faults leave the breaker closed", fresh, cfg(3, false), []slotEvent{fault, rebuilt, fault},
			func(t *testing.T, st slotState, eff slotEffects) {
				if st.breaker != breakerClosed || st.faults != 2 || !eff.record {
					t.Errorf("got breaker %s, run %d, record %v", breakerName(st.breaker), st.faults, eff.record)
				}
			}},
		{"third consecutive fault trips", slotState{phase: phaseLive, budget: 9}, cfg(3, false), []slotEvent{fault, rebuilt, fault, rebuilt, fault},
			func(t *testing.T, st slotState, _ slotEffects) {
				if st.breaker != breakerOpen || !st.openedAt.Equal(t0) || st.phase != phaseRestarting {
					t.Errorf("got breaker %s opened %v, phase %s", breakerName(st.breaker), st.openedAt, healthName(st.phase))
				}
			}},
		{"flaky trips one fault early", fresh, cfg(3, false), []slotEvent{fault, rebuilt, flaky},
			func(t *testing.T, st slotState, _ slotEffects) {
				if st.breaker != breakerOpen {
					t.Errorf("breaker %s after 2 faults with flap evidence, want open", breakerName(st.breaker))
				}
			}},
		{"flaky never lowers a threshold of 1", fresh, cfg(1, false), []slotEvent{flaky},
			func(t *testing.T, st slotState, _ slotEffects) {
				if st.breaker != breakerOpen || st.faults != 1 {
					t.Errorf("got breaker %s, run %d", breakerName(st.breaker), st.faults)
				}
			}},
		{"cooldown elapsed admits the probe", slotState{phase: phaseLive, budget: 2, breaker: breakerOpen}, cfg(3, false), []slotEvent{{kind: evCooldownElapsed}},
			func(t *testing.T, st slotState, eff slotEffects) {
				if st.breaker != breakerHalfOpen {
					t.Errorf("got breaker %s", breakerName(st.breaker))
				}
			}},
		{"a fault during the half-open probe reopens at once", slotState{phase: phaseLive, budget: 2, breaker: breakerHalfOpen}, cfg(3, false), []slotEvent{fault},
			func(t *testing.T, st slotState, _ slotEffects) {
				if st.breaker != breakerOpen || st.faults != 1 || !st.openedAt.Equal(t0) {
					t.Errorf("got breaker %s, run %d, opened %v", breakerName(st.breaker), st.faults, st.openedAt)
				}
			}},
		{"jobOK closes and zeroes the run", slotState{phase: phaseLive, budget: 2, breaker: breakerHalfOpen, faults: 3}, cfg(3, false), []slotEvent{{kind: evJobOK}},
			func(t *testing.T, st slotState, _ slotEffects) {
				if st.breaker != breakerClosed || st.faults != 0 {
					t.Errorf("got breaker %s, run %d", breakerName(st.breaker), st.faults)
				}
			}},
		{"breaker state survives restarting -> live", fresh, cfg(1, false), []slotEvent{fault, rebuilt},
			func(t *testing.T, st slotState, _ slotEffects) {
				if st.phase != phaseLive || st.gen != 1 || st.restarts != 1 || st.breaker != breakerOpen || !st.openedAt.Equal(t0) {
					t.Errorf("got %+v", st)
				}
			}},
		{"planned charges nothing and rebuilds at once", slotState{phase: phaseLive, budget: 2, breaker: breakerHalfOpen}, cfg(1, false), []slotEvent{planned},
			func(t *testing.T, st slotState, eff slotEffects) {
				if st.phase != phaseRestarting || st.faults != 0 || st.breaker != breakerHalfOpen || !st.nextAttempt.Equal(t0) || eff.record {
					t.Errorf("got %+v, %+v", st, eff)
				}
			}},
		{"a planned rebuild that succeeds is free", fresh, cfg(3, false), []slotEvent{planned, rebuilt},
			func(t *testing.T, st slotState, _ slotEffects) {
				if st.phase != phaseLive || st.gen != 1 || st.restarts != 0 {
					t.Errorf("got %+v", st)
				}
			}},
		{"only the first planned rebuild skips backoff and charge", fresh, cfg(3, false), []slotEvent{planned, failed},
			func(t *testing.T, st slotState, eff slotEffects) {
				if st.restarts != 0 || !st.charged || !st.nextAttempt.Equal(t0.Add(backoff)) {
					t.Errorf("got %+v, %+v", st, eff)
				}
			}},
		{"the second attempt after a planned event is charged", slotState{phase: phaseLive, budget: 9}, cfg(3, false), []slotEvent{planned, failed, failed},
			func(t *testing.T, st slotState, eff slotEffects) {
				if st.restarts != 1 || !st.nextAttempt.Equal(t0.Add(backoff<<1)) {
					t.Errorf("got restarts %d, next attempt %v", st.restarts, st.nextAttempt)
				}
			}},
		{"backoff doubles per restart, capped at <<10", slotState{phase: phaseLive, budget: 99, restarts: 12}, cfg(3, false), []slotEvent{fault},
			func(t *testing.T, st slotState, eff slotEffects) {
				if !st.nextAttempt.Equal(t0.Add(backoff << 10)) {
					t.Errorf("next attempt %v", st.nextAttempt)
				}
			}},
		{"exhaustion on a dist slot with FallbackInproc grants one fresh budget", slotState{phase: phaseLive, budget: 2, restarts: 2, dist: true}, cfg(3, true), []slotEvent{fault},
			func(t *testing.T, st slotState, eff slotEffects) {
				if st.phase != phaseRestarting || !st.fallback || st.budget != 4 || !st.nextAttempt.Equal(t0.Add(backoff<<2)) {
					t.Errorf("got %+v, %+v", st, eff)
				}
			}},
		{"the fallback is granted exactly once", slotState{phase: phaseLive, budget: 4, restarts: 4, dist: true, fallback: true}, cfg(3, true), []slotEvent{fault},
			func(t *testing.T, st slotState, _ slotEffects) {
				if st.phase != phaseDead || st.budget != 4 {
					t.Errorf("got %+v", st)
				}
			}},
		{"exhaustion of an in-process slot is death", slotState{phase: phaseLive, budget: 2, restarts: 2}, cfg(3, true), []slotEvent{fault},
			func(t *testing.T, st slotState, _ slotEffects) {
				if st.phase != phaseDead || st.fallback {
					t.Errorf("got %+v", st)
				}
			}},
		{"exhaustion of a dist slot without FallbackInproc is death", slotState{phase: phaseLive, budget: 2, restarts: 1, dist: true}, cfg(3, false), []slotEvent{fault, failed},
			func(t *testing.T, st slotState, _ slotEffects) {
				if st.phase != phaseDead || st.fallback || st.restarts != 2 {
					t.Errorf("got %+v", st)
				}
			}},
		{"stopping during backoff is death", fresh, cfg(3, false), []slotEvent{fault, {kind: evStopping}},
			func(t *testing.T, st slotState, _ slotEffects) {
				if st.phase != phaseDead {
					t.Errorf("phase %s", healthName(st.phase))
				}
			}},
		{"stopping leaves a live slot alone", fresh, cfg(3, false), []slotEvent{{kind: evStopping}},
			func(t *testing.T, st slotState, eff slotEffects) {
				if st != fresh || eff.applied {
					t.Errorf("got %+v, %+v", st, eff)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, eff := run(tc.start, tc.cfg, tc.evs...)
			tc.check(t, st, eff)
		})
	}

	t.Run("a stale generation is a no-op", func(t *testing.T) {
		st := slotState{phase: phaseLive, budget: 2, gen: 5}
		for _, kind := range []slotEventKind{evFault, evPlanned} {
			got, eff := next(st, slotEvent{kind: kind, gen: 4, at: t0}, cfg(1, false))
			if got != st || eff != (slotEffects{}) {
				t.Errorf("event %d on gen 4 moved a gen-5 slot: %+v, %+v", kind, got, eff)
			}
		}
	})
	t.Run("handedOff suppresses only the flight record", func(t *testing.T) {
		kept, keptEff := next(fresh, fault, cfg(1, false))
		handed := fault
		handed.handedOff = true
		got, eff := next(fresh, handed, cfg(1, false))
		if got != kept || !keptEff.record || eff.record {
			t.Errorf("handed off: %+v, %+v; answered: %+v, %+v", got, eff, kept, keptEff)
		}
		keptEff.record = false
		if eff != keptEff {
			t.Errorf("effects differ beyond the record: %+v vs %+v", eff, keptEff)
		}
	})
}
