package plan

import (
	"time"

	"pstap/internal/obs"
	"pstap/internal/paragon"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
)

// Observation is one task's digest of observed per-CPI worker spans
// over the gauge window. Comp and Send are means — both are idle-free
// on this runtime (mp sends are buffered and never block). Recv is the
// MINIMUM receive phase across the window's spans, not the mean: in
// steady state every task's observed total equals the pipeline period
// because idle parks in the receive phase, so mean receive says nothing
// about intrinsic cost; the window minimum (a CPI that was already
// buffered when the worker looped) bounds the intrinsic receive cost —
// and keeps a fault-slowed task visible, since an injected delay lands
// in every one of its receive phases, floor included.
type Observation struct {
	Recv, Comp, Send float64 // seconds
	Total            float64 // mean full-span seconds (≈ observed period)
	Samples          int

	// Deser is the mean receiver-side deserialize cost of this task's
	// output messages per worker-CPI, measured directly by the distributed
	// transport's wire-event journal (zero for in-process replicas, or
	// when no wire journal is supplied). The Paragon model charges unpack
	// to the sender's PackTime while the work actually runs on the
	// receiver's transport reader — invisible to every span phase — so
	// the comm fit adds this to the observed send side.
	Deser float64
}

// Busy returns the observation's idle-free busy-time estimate. Deser is
// included: the model's per-task busy prediction covers the unpack of
// the task's output, so the measured counterpart must too.
func (o Observation) Busy() float64 { return o.Recv + o.Comp + o.Send + o.Deser }

// ObserveJournal digests a span journal (one collector's, or the
// cluster-merged clock-corrected one) into per-task observations over
// the last window distinct CPIs (default 32, like obs.ComputeGauges).
// ok is false unless every pipeline task journaled at least one span —
// a partial journal (federation still warming up, a node down) must not
// drive calibration.
//
// A weight task's observation is the mean over the window's CPIs, job-end
// CPIs included: on a job's last CPI it trains and sends nothing (see
// pipeline's ctl), so its span is mostly the receive. That mean is the
// per-CPI cost eq. 1 should predict for the job mix the replica serves:
// it falls as jobs get shorter, and a window of one long job sees almost
// only training CPIs.
func ObserveJournal(window int, evs []obs.SpanEvent) (o [pipeline.NumTasks]Observation, ok bool) {
	return ObserveJournalWire(window, evs, nil, nil)
}

// ObserveJournalWire is ObserveJournal with the distributed transport's
// wire-cost journal folded in: each task's observation additionally
// carries the mean receiver-side deserialize cost of the messages it
// sent, matched to the span window through trace ids and attributed to
// the sending task through rankTask (rank → task, as from
// pipeline.RankTasks). A nil wire journal or rank map degrades to the
// span-only digest.
func ObserveJournalWire(window int, evs []obs.SpanEvent, wire []obs.WireEvent, rankTask []int) (o [pipeline.NumTasks]Observation, ok bool) {
	if window <= 0 {
		window = 32
	}
	seen := make(map[int]struct{})
	for _, ev := range evs {
		if ev.Task >= 0 && ev.Task < pipeline.NumTasks {
			seen[ev.CPI] = struct{}{}
		}
	}
	if len(seen) == 0 {
		return o, false
	}
	cpis := make([]int, 0, len(seen))
	for cpi := range seen {
		cpis = append(cpis, cpi)
	}
	// Keep the highest `window` CPI indices.
	for len(cpis) > window {
		lo, at := cpis[0], 0
		for i, c := range cpis {
			if c < lo {
				lo, at = c, i
			}
		}
		cpis[at] = cpis[len(cpis)-1]
		cpis = cpis[:len(cpis)-1]
	}
	keep := make(map[int]struct{}, len(cpis))
	for _, c := range cpis {
		keep[c] = struct{}{}
	}
	var recvMin, compSum, sendSum, totSum [pipeline.NumTasks]int64
	traces := make(map[uint64]struct{})
	for _, ev := range evs {
		if ev.Task < 0 || ev.Task >= pipeline.NumTasks {
			continue
		}
		if _, k := keep[ev.CPI]; !k {
			continue
		}
		if ev.Trace != 0 {
			traces[ev.Trace] = struct{}{}
		}
		t := ev.Task
		if r := ev.T1 - ev.T0; o[t].Samples == 0 || r < recvMin[t] {
			recvMin[t] = r
		}
		compSum[t] += ev.T2 - ev.T1
		sendSum[t] += ev.T3 - ev.T2
		totSum[t] += ev.T3 - ev.T0
		o[t].Samples++
	}
	// Receiver-side deserialize, attributed to the sending task (whose
	// PackTime the model charges it to) and windowed by the span traces.
	var deserSum [pipeline.NumTasks]int64
	if len(rankTask) > 0 {
		for _, wev := range wire {
			if wev.Dir != obs.WireRecv || wev.Trace == 0 {
				continue
			}
			if _, k := traces[wev.Trace]; !k {
				continue
			}
			if wev.Src < 0 || wev.Src >= len(rankTask) {
				continue
			}
			if src := rankTask[wev.Src]; src >= 0 && src < pipeline.NumTasks {
				deserSum[src] += wev.DeserNs
			}
		}
	}
	sec := func(ns int64) float64 { return float64(ns) / float64(time.Second) }
	ok = true
	for t := range o {
		n := o[t].Samples
		if n == 0 {
			ok = false
			continue
		}
		o[t].Recv = sec(recvMin[t])
		o[t].Comp = sec(compSum[t] / int64(n))
		o[t].Send = sec(sendSum[t] / int64(n))
		o[t].Total = sec(totSum[t] / int64(n))
		o[t].Deser = sec(deserSum[t]) / float64(n)
	}
	return o, ok
}

// commScaleClamp bounds the per-step multiplicative correction of the
// communication coefficients, so one garbage window cannot blow the
// model up.
const commScaleClamp = 64.0

// Calibrate refits a machine's cost constants from observed span phases
// under the assignment that produced them, blending each correction by
// alpha (1 = adopt the implied value outright, smaller = EWMA toward
// it; out-of-range values mean 1). Three seams are fit:
//
//   - per-task compute rates, from the observed compute means against
//     the model's flop counts;
//   - one multiplicative communication scale across the pack, unpack,
//     transfer and startup coefficients, from aggregate observed vs
//     predicted send time (send is idle-free, so the ratio is clean);
//   - per-task OverheadSec, the non-negative residual of the observed
//     busy estimate (min-recv + comp + send) over the refit model —
//     this is what absorbs costs outside the flops/bytes model and
//     makes predicted busy converge to observed busy exactly where the
//     model underpredicts.
//
// Tasks with no samples keep their seed constants.
func Calibrate(m paragon.Machine, p radar.Params, a pipeline.Assignment, o [pipeline.NumTasks]Observation, alpha float64) paragon.Machine {
	if alpha <= 0 || alpha > 1 {
		alpha = 1
	}
	mo := paragon.NewModel(m, p)
	out := m

	flops := mo.F.PerTask()
	for t := range o {
		if o[t].Samples == 0 || o[t].Comp <= 0 || a[t] <= 0 {
			continue
		}
		implied := float64(flops[t]) / (float64(a[t]) * o[t].Comp)
		out.TaskRate[t] = (1-alpha)*m.TaskRate[t] + alpha*implied
	}

	// The measured send side includes the receiver's deserialize when a
	// wire journal supplied it: PackTime models pack + transfer + unpack,
	// and the unpack share is invisible to span phases (it runs on the
	// receiving transport's reader, not in any worker).
	var obsSend, predSend float64
	for t := range o {
		if o[t].Samples == 0 {
			continue
		}
		obsSend += o[t].Send + o[t].Deser
		predSend += mo.PackTime(t, a[t])
	}
	if obsSend > 0 && predSend > 0 {
		f := obsSend / predSend
		if f > commScaleClamp {
			f = commScaleClamp
		}
		if f < 1/commScaleClamp {
			f = 1 / commScaleClamp
		}
		f = (1 - alpha) + alpha*f
		out.PackReorgSecPB *= f
		out.PackLinSecPB *= f
		out.UnpackSecPB *= f
		out.TransferSecPB *= f
		out.StartupSec *= f
	}

	// Overhead residual against the refit model with overhead zeroed, so
	// stale overhead never feeds back into its own estimate.
	base := out
	base.OverheadSec = [pipeline.NumTasks]float64{}
	mb := paragon.NewModel(base, p)
	for t := range o {
		if o[t].Samples == 0 {
			continue
		}
		resid := o[t].Busy() - mb.Busy(t, a)
		if resid < 0 {
			resid = 0
		}
		out.OverheadSec[t] = (1-alpha)*m.OverheadSec[t] + alpha*resid
	}
	return out
}
