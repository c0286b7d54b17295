package plan

import (
	"math"
	"testing"
	"time"

	"pstap/internal/obs"
	"pstap/internal/paragon"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
)

// synthObs builds the observations a machine `truth` would produce
// under an assignment: per-task min-recv = intrinsic + overhead (an
// injected delay lands in the receive phase), comp and send at the
// model's predictions.
func synthObs(truth paragon.Machine, p radar.Params, a pipeline.Assignment) [pipeline.NumTasks]Observation {
	clean := truth
	clean.OverheadSec = [pipeline.NumTasks]float64{}
	mo := paragon.NewModel(clean, p)
	var o [pipeline.NumTasks]Observation
	for t := range o {
		o[t] = Observation{
			Recv:    mo.RecvIntrinsic(t, a) + truth.OverheadSec[t],
			Comp:    mo.CompTime(t, a[t]),
			Send:    mo.PackTime(t, a[t]),
			Samples: 8,
		}
	}
	return o
}

func TestCalibrateConvergesInOneStep(t *testing.T) {
	// With alpha = 1 and observations generated by a "true" machine whose
	// rates and communication constants differ from the seed by per-task
	// and uniform factors, one calibration step must make predicted busy
	// match observed busy exactly (rates refit per task, the comm scale
	// refit globally, the rest absorbed by the overhead residual).
	seed := paragon.HostScale()
	truth := seed
	for i := range truth.TaskRate {
		truth.TaskRate[i] *= 0.37
	}
	const comm = 2.9
	truth.StartupSec *= comm
	truth.TransferSecPB *= comm
	truth.UnpackSecPB *= comm
	truth.PackReorgSecPB *= comm
	truth.PackLinSecPB *= comm
	truth.OverheadSec[pipeline.TaskCFAR] = 0.025

	p := radar.Small()
	a := pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1)
	o := synthObs(truth, p, a)

	cal := Calibrate(seed, p, a, o, 1)
	mo := paragon.NewModel(cal, p)
	for task := range o {
		got := mo.Busy(task, a)
		want := o[task].Busy()
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("task %d: calibrated busy %g, observed %g", task, got, want)
		}
	}
	// The overhead residual landed on the faulted task, not the others.
	if cal.OverheadSec[pipeline.TaskCFAR] < 0.02 {
		t.Errorf("CFAR overhead %g, want ~0.025", cal.OverheadSec[pipeline.TaskCFAR])
	}
	for task, ovh := range cal.OverheadSec {
		if task != pipeline.TaskCFAR && ovh > 0.005 {
			t.Errorf("task %d picked up spurious overhead %g", task, ovh)
		}
	}
}

func TestCalibrateBlendsWithAlpha(t *testing.T) {
	seed := paragon.HostScale()
	truth := seed
	truth.TaskRate[0] *= 0.5
	p := radar.Small()
	a := pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1)
	o := synthObs(truth, p, a)

	half := Calibrate(seed, p, a, o, 0.5)
	lo, hi := truth.TaskRate[0], seed.TaskRate[0]
	if half.TaskRate[0] <= lo || half.TaskRate[0] >= hi {
		t.Errorf("alpha 0.5 rate %g outside (%g, %g)", half.TaskRate[0], lo, hi)
	}
	// Out-of-range alpha falls back to full adoption.
	full := Calibrate(seed, p, a, o, -1)
	if math.Abs(full.TaskRate[0]-lo) > 1e-6*lo {
		t.Errorf("alpha -1 rate %g, want %g", full.TaskRate[0], lo)
	}
	// Tasks without samples keep their seed constants.
	o[3].Samples = 0
	kept := Calibrate(seed, p, a, o, 1)
	if kept.TaskRate[3] != seed.TaskRate[3] {
		t.Errorf("unsampled task rate moved: %g -> %g", seed.TaskRate[3], kept.TaskRate[3])
	}
}

func TestObserveJournal(t *testing.T) {
	ms := int64(time.Millisecond)
	var evs []obs.SpanEvent
	// 40 CPIs, every task one worker span per CPI. Task 6's receive is
	// always >= 30 ms (the injected delay); the others see idle-inflated
	// receives except on one buffered CPI each, where recv is ~1 ms.
	for cpi := 0; cpi < 40; cpi++ {
		for task := 0; task < pipeline.NumTasks; task++ {
			recv := 25 * ms
			if task == 6 {
				recv = 30 * ms
			} else if cpi%7 == task {
				recv = 1 * ms // buffered arrival: the intrinsic floor
			}
			t0 := int64(cpi) * 40 * ms
			evs = append(evs, obs.SpanEvent{
				Task: task, Worker: 0, CPI: cpi,
				T0: t0, T1: t0 + recv, T2: t0 + recv + 2*ms, T3: t0 + recv + 3*ms,
			})
		}
	}
	o, ok := ObserveJournal(32, evs)
	if !ok {
		t.Fatal("full journal reported incomplete")
	}
	for task := 0; task < pipeline.NumTasks; task++ {
		if o[task].Samples != 32 {
			t.Errorf("task %d samples %d, want window 32", task, o[task].Samples)
		}
		if math.Abs(o[task].Comp-0.002) > 1e-9 || math.Abs(o[task].Send-0.001) > 1e-9 {
			t.Errorf("task %d comp/send %g/%g", task, o[task].Comp, o[task].Send)
		}
	}
	// Min-recv identifies the slowed task where means cannot: task 6's
	// floor stays at the injected 30 ms, everyone else's drops to 1 ms.
	if math.Abs(o[6].Recv-0.030) > 1e-9 {
		t.Errorf("slow task min recv %g, want 0.030", o[6].Recv)
	}
	for task := 0; task < 6; task++ {
		if o[task].Recv > 0.0015 {
			t.Errorf("task %d min recv %g, want the 1 ms floor", task, o[task].Recv)
		}
	}
	if o[6].Busy() < 5*o[0].Busy() {
		t.Errorf("busy estimate does not isolate the slow task: %g vs %g", o[6].Busy(), o[0].Busy())
	}

	// Partial journals (a task missing) must not claim completeness.
	var partial []obs.SpanEvent
	for _, ev := range evs {
		if ev.Task != 3 {
			partial = append(partial, ev)
		}
	}
	if _, ok := ObserveJournal(32, partial); ok {
		t.Error("journal missing a task reported complete")
	}
	if _, ok := ObserveJournal(32, nil); ok {
		t.Error("empty journal reported complete")
	}
}

func TestObserveJournalWire(t *testing.T) {
	ms := int64(time.Millisecond)
	// 4 CPIs, one worker span per task per CPI, each span carrying a
	// distinct trace shared across the CPI's tasks.
	var evs []obs.SpanEvent
	for cpi := 0; cpi < 4; cpi++ {
		for task := 0; task < pipeline.NumTasks; task++ {
			t0 := int64(cpi) * 40 * ms
			evs = append(evs, obs.SpanEvent{
				Task: task, Worker: 0, CPI: cpi, Trace: uint64(100 + cpi),
				T0: t0, T1: t0 + ms, T2: t0 + 3*ms, T3: t0 + 4*ms,
			})
		}
	}
	// One rank per task, driver last: rank r hosts task r.
	rankTask := make([]int, pipeline.NumTasks+1)
	for r := 0; r < pipeline.NumTasks; r++ {
		rankTask[r] = r
	}
	rankTask[pipeline.NumTasks] = -1

	// Each CPI: a recv event for a message task 0 sent (2 ms deser), one
	// task 5 sent (1 ms), plus noise that must not count — an untraced
	// event, a send-side event, and a trace outside the window.
	var wire []obs.WireEvent
	for cpi := 0; cpi < 4; cpi++ {
		tr := uint64(100 + cpi)
		wire = append(wire,
			obs.WireEvent{Dir: obs.WireRecv, Src: 0, Dst: 3, Trace: tr, DeserNs: 2 * ms},
			obs.WireEvent{Dir: obs.WireRecv, Src: 5, Dst: 6, Trace: tr, DeserNs: 1 * ms},
			obs.WireEvent{Dir: obs.WireRecv, Src: 0, Dst: 3, Trace: 0, DeserNs: 50 * ms},
			obs.WireEvent{Dir: obs.WireSend, Src: 0, Dst: 3, Trace: tr, SerNs: 50 * ms},
			obs.WireEvent{Dir: obs.WireRecv, Src: 0, Dst: 3, Trace: 9999, DeserNs: 50 * ms},
		)
	}

	o, ok := ObserveJournalWire(32, evs, wire, rankTask)
	if !ok {
		t.Fatal("full journal reported incomplete")
	}
	if math.Abs(o[0].Deser-0.002) > 1e-9 {
		t.Errorf("task 0 deser %g, want 0.002", o[0].Deser)
	}
	if math.Abs(o[5].Deser-0.001) > 1e-9 {
		t.Errorf("task 5 deser %g, want 0.001", o[5].Deser)
	}
	for _, task := range []int{1, 2, 3, 4, 6} {
		if o[task].Deser != 0 {
			t.Errorf("task %d picked up deser %g, want 0", task, o[task].Deser)
		}
	}
	// Busy includes the measured deser: the model's busy covers unpack.
	if want := o[0].Recv + o[0].Comp + o[0].Send + 0.002; math.Abs(o[0].Busy()-want) > 1e-9 {
		t.Errorf("busy %g, want %g", o[0].Busy(), want)
	}

	// Without the wire journal the digest matches plain ObserveJournal.
	plain, _ := ObserveJournal(32, evs)
	bare, _ := ObserveJournalWire(32, evs, nil, nil)
	if plain != bare {
		t.Error("nil wire journal diverges from ObserveJournal")
	}

	// A larger measured comm side drives a larger comm-scale correction:
	// start from observations that match the seed model exactly (scale
	// factor 1) and add measured deser on top.
	seed := paragon.HostScale()
	p := radar.Small()
	a := pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1)
	base := synthObs(seed, p, a)
	boosted := base
	for task := range boosted {
		boosted[task].Deser = boosted[task].Send
	}
	withWire := Calibrate(seed, p, a, boosted, 1)
	withoutWire := Calibrate(seed, p, a, base, 1)
	if withWire.TransferSecPB <= withoutWire.TransferSecPB {
		t.Errorf("comm scale ignored measured deser: %g <= %g",
			withWire.TransferSecPB, withoutWire.TransferSecPB)
	}
}
