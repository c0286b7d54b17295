package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"time"

	"pstap/internal/dist"
	"pstap/internal/obs"
	"pstap/internal/paragon"
	"pstap/internal/pipeline"
	"pstap/internal/plan"
	"pstap/internal/stap"
)

// Live placement replanning: the server keeps a paragon cost model seeded
// from the coarse host-scale profile (paragon.HostScale) and
// re-calibrates it from observed span journals — the federated
// cluster-wide journal for a distributed slot, the local collector's for
// an in-process one. /plan serves the resulting current-vs-recommended
// view (which stapplan -observe consumes to seed an offline search); with
// Config.Replan on, a background loop also acts on it: when the observed
// steady-state period has drifted past replanDrift away from the model's
// prediction, or a latency or throughput SLO alert is firing, and the
// re-split placement wins back enough of the predicted bottleneck, the
// distributed slot rolls onto the recommended placement through a planned
// restart that the slot's own loop rebuilds.

// planAlpha is the EWMA weight of each online calibration step: 1 adopts
// every observation outright, smaller values smooth over noisy windows.
const planAlpha = 0.5

// replanDrift is the fractional observed-vs-predicted period drift that
// arms a roll.
const replanDrift = 0.25

// replanMinGain is the minimal fractional reduction of the predicted
// bottleneck (max per-process busy-time sum) that justifies rolling a
// live replica — drift alone, with nothing to win, never rolls.
const replanMinGain = 0.05

// planner is the server's calibration state and, with Replan on, the
// background replanning loop.
type planner struct {
	mu         sync.Mutex
	machine    paragon.Machine
	calibrated bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// startPlanner initializes the calibration state and, when Replan is on,
// spins the replanning loop up. Called from New.
func (s *Server) startPlanner() {
	s.planner = &planner{machine: paragon.HostScale(), stop: make(chan struct{})}
	if !s.cfg.Replan {
		return
	}
	s.planner.wg.Add(1)
	go func() {
		defer s.planner.wg.Done()
		tick := time.NewTicker(s.cfg.ReplanInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.replanPass()
			case <-s.planner.stop:
				return
			}
		}
	}()
}

// stopPlanner ends the replanning loop and joins it.
func (s *Server) stopPlanner() {
	if s.planner == nil {
		return
	}
	close(s.planner.stop)
	s.planner.wg.Wait()
}

// planSlot picks the slot /plan reports on: the first distributed slot
// when the pool has one (that is where placement can actually change),
// the first slot otherwise.
func (s *Server) planSlot() *replicaSlot {
	for _, slot := range s.slots {
		if slot.cluster != nil {
			return slot
		}
	}
	return s.slots[0]
}

// planEvents returns the span journal the planner observes for a slot:
// the merged clock-corrected federated journal for a distributed slot,
// the local collector's journal for an in-process one.
func (s *Server) planEvents(slot *replicaSlot) []obs.SpanEvent {
	if slot.cluster != nil {
		return s.clusterEvents(slot)
	}
	col := slot.record().col
	if col == nil {
		return nil
	}
	return col.Journal()
}

// slotPlacement returns a distributed slot's current placement (the
// config default when none was set explicitly); nil for in-process slots.
func (s *Server) slotPlacement(slot *replicaSlot) dist.Placement {
	if slot.cluster == nil {
		return nil
	}
	slot.mu.Lock()
	p := slot.cluster.Placement
	slot.mu.Unlock()
	if p == nil {
		p = dist.DefaultPlacement(len(slot.cluster.Nodes))
	}
	return p
}

// PlanReport builds the /plan payload for the server's primary slot:
// per-task observations, observed-vs-predicted period drift, and the
// planner's recommendation under the freshly calibrated model. Each call
// is also a calibration step — scraping /plan keeps the model converging
// even with Replan off.
func (s *Server) PlanReport() *plan.Report {
	return s.planReportFor(s.planSlot())
}

// planReportFor observes one slot, advances the calibration, and builds
// its report.
func (s *Server) planReportFor(slot *replicaSlot) *plan.Report {
	p := s.planner
	rep := &plan.Report{
		Assign:        append([]int(nil), s.cfg.Assign[:]...),
		ReplanEnabled: s.cfg.Replan,
		ReplansTotal:  s.metrics.replans.Load(),
	}
	if s.cfg.Replan {
		rep.ReplanDrift = replanDrift
	}
	placement := s.slotPlacement(slot)
	if placement != nil {
		rep.Placement = placement.String()
	}

	p.mu.Lock()
	machine, calibrated := p.machine, p.calibrated
	p.mu.Unlock()
	rep.Calibrated = calibrated
	mo := paragon.NewModel(machine, s.cfg.Scene.Params)
	for _, b := range plan.TaskBusy(mo, s.cfg.Assign) {
		rep.PredictedPeriodSec = math.Max(rep.PredictedPeriodSec, b)
	}

	// Fold the measured wire costs in: the receiver-side deserialize of
	// each task's output (windowed by trace, attributed to the sender)
	// joins the span phases, so the comm fit calibrates from direct
	// measurements instead of the pack-time proxy alone.
	o, ok := plan.ObserveJournalWire(slot.window(), s.planEvents(slot),
		s.slotWire(slot), pipeline.RankTasks(s.cfg.Assign))
	if !ok {
		// Not every task has been observed yet; report the model side only.
		return rep
	}
	for t := range o {
		rep.Tasks = append(rep.Tasks, plan.TaskObs{
			Name:    stap.TaskNames[t],
			RecvSec: o[t].Recv,
			CompSec: o[t].Comp,
			SendSec: o[t].Send,
			BusySec: o[t].Busy(),
			Samples: o[t].Samples,
		})
		if o[t].Samples > rep.WindowCPIs {
			rep.WindowCPIs = o[t].Samples
		}
		rep.ObservedPeriodSec = math.Max(rep.ObservedPeriodSec, o[t].Busy())
	}
	// Drift is measured against the model as it stood BEFORE this step's
	// calibration — afterwards predicted converges to observed by
	// construction and the drift signal would vanish.
	if rep.PredictedPeriodSec > 0 {
		rep.DriftFrac = math.Abs(rep.ObservedPeriodSec-rep.PredictedPeriodSec) / rep.PredictedPeriodSec
	}
	cal := plan.Calibrate(machine, s.cfg.Scene.Params, s.cfg.Assign, o, planAlpha)
	p.mu.Lock()
	p.machine = cal
	p.calibrated = true
	p.mu.Unlock()
	rep.Calibrated = true

	cmo := paragon.NewModel(cal, s.cfg.Scene.Params)
	if placement != nil {
		// A live distributed slot can only change its placement, not its
		// worker counts: recommend the bottleneck-minimizing re-split of
		// the current assignment's calibrated busy times.
		busy := plan.TaskBusy(cmo, s.cfg.Assign)
		recPlace, procBusy := plan.SplitPlacement(busy, len(placement))
		var curMax, recMax float64
		for _, r := range placement {
			var sum float64
			for t := r[0]; t <= r[1]; t++ {
				sum += busy[t]
			}
			curMax = math.Max(curMax, sum)
		}
		for _, sum := range procBusy {
			recMax = math.Max(recMax, sum)
		}
		res := cmo.Simulate(s.cfg.Assign)
		rec := &plan.Recommendation{
			Assign:        rep.Assign,
			Placement:     recPlace.String(),
			PeriodSec:     recMax,
			Eq2LatencySec: res.EqLatency,
			Eq3LatencySec: res.RealLatency,
		}
		if recMax > 0 {
			rec.ThroughputCPS = 1 / recMax
		}
		if curMax > 0 {
			rec.GainFrac = (curMax - recMax) / curMax
		}
		rep.Recommended = rec
	} else if cands, err := plan.Optimize(plan.Request{
		Model: cmo,
		Nodes: s.cfg.Assign.Total(),
		Top:   1,
	}); err == nil && len(cands) > 0 {
		// In-process pools have no placement to roll; recommend the best
		// worker assignment at the same total budget instead.
		best := cands[0]
		cur := cmo.Simulate(s.cfg.Assign)
		rec := &plan.Recommendation{
			Assign:        append([]int(nil), best.Assign[:]...),
			PeriodSec:     best.Period,
			ThroughputCPS: best.Throughput,
			Eq2LatencySec: best.EqLatency,
			Eq3LatencySec: best.RealLatency,
		}
		if cur.Period > 0 {
			rec.GainFrac = (cur.Period - best.Period) / cur.Period
		}
		rep.Recommended = rec
	}
	return rep
}

// replanPass is one tick of the replanning loop: observe and re-calibrate
// every distributed slot, and roll any whose observed period has drifted
// past the threshold while the recommended placement wins back enough.
// A firing latency or throughput SLO alert also arms the roll: a breach
// whose cause the calibrated model already predicts produces no drift,
// but is exactly the moment a winning placement should be taken.
func (s *Server) replanPass() {
	pressure := s.sloPressure()
	for _, slot := range s.slots {
		if slot.cluster == nil {
			continue
		}
		rep := s.planReportFor(slot)
		rec := rep.Recommended
		if rec == nil || (rep.DriftFrac <= replanDrift && !pressure) {
			continue
		}
		if rec.Placement == rep.Placement || rec.GainFrac <= replanMinGain {
			continue
		}
		to, err := dist.ParsePlacement(rec.Placement, len(slot.cluster.Nodes))
		if err != nil {
			s.cfg.Logf("stapd: replica %d replan: bad recommendation %q: %v", slot.idx, rec.Placement, err)
			continue
		}
		s.rollSlot(slot, rep.Placement, to)
	}
}

// rollSlot applies a recommended placement to a distributed slot and
// restarts it with a planned event, counted in stapd_replans_total then,
// and wakes the slot's loop to rebuild under the new split. The event's
// generation makes the roll safe against a job failure observed
// concurrently on the old incarnation; a slot not live counts no roll and
// takes the placement at its next build attempt.
func (s *Server) rollSlot(slot *replicaSlot, from string, to dist.Placement) {
	slot.mu.Lock()
	gen := slot.state.gen
	slot.cluster.Placement = to
	slot.mu.Unlock()
	s.cfg.Logf("stapd: replica %d replan: rolling placement %s -> %s", slot.idx, from, to)
	if _, eff := s.moveSlot(slot, slotEvent{kind: evPlanned, gen: gen}); eff.applied {
		s.metrics.replans.Add(1)
		select {
		case slot.wake <- struct{}{}:
		default:
		}
	}
}

// PlanHandler serves PlanReport as JSON — mount as /plan beside /metrics.
func (s *Server) PlanHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.PlanReport())
	})
}
