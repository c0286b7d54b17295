package pipeline

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pstap/internal/fault"
	"pstap/internal/mp"
	"pstap/internal/obs"
)

// stageHarness runs runStage over a fake stage on rank 1 of a 2-rank
// world, fed control messages from rank 0, and logs every call the loop
// makes.
type stageHarness struct {
	e     *env
	world *mp.World
	log   []string
}

func newStageHarness(inj *fault.Injector) *stageHarness {
	a := NewAssignment(1, 1, 1, 1, 1, 1, 1)
	world := mp.NewWorld(2)
	if inj != nil {
		inj.Bind(world.Done())
	}
	return &stageHarness{
		world: world,
		e: &env{
			world: world,
			obs:   obs.New(DefaultObsConfig(a)),
			fault: inj,
			sup:   newSupervisor(a),
		},
	}
}

// run feeds the flags and drives the loop for (task, 0) under supervision.
func (h *stageHarness) run(t *testing.T, task int, feed []ctl) {
	t.Helper()
	src, dst := h.world.Comm(0), h.world.Comm(1)
	for i, c := range feed {
		src.Send(1, i, c)
	}
	var cur ctl
	st := stage{
		recv: func(cpi int) ctl {
			// faultPoint has already marked this CPI as the one in progress.
			if got := h.e.sup.cur[task][0].Load(); got != int64(cpi) {
				t.Errorf("recv(%d) ran with the fault point at cpi %d", cpi, got)
			}
			cur = dst.Recv(0, cpi).(ctl)
			h.log = append(h.log, fmt.Sprintf("recv %d", cpi))
			return cur
		},
		compute: func() { h.log = append(h.log, "compute") },
		send: func(cpi int, fwd ctl) {
			if fwd != cur.next() {
				t.Errorf("send(%d) forwarded %+v, want %+v", cpi, fwd, cur.next())
			}
			h.log = append(h.log, fmt.Sprintf("send %d eof=%v", cpi, fwd.EOF))
		},
	}
	superviseWorker(h.world, h.e.sup, task, 0, func() { h.e.runStage(task, 0, st) })
}

// TestStageLoopProtocol pins what one CPI iteration of a stage is: fault
// point → receive → compute → send → span, with EOF forwarded exactly
// once, unspanned, as the loop's only exit.
func TestStageLoopProtocol(t *testing.T) {
	feed := []ctl{
		{Reset: true, Trace: 11, Hop: 3},
		{Trace: 12, Hop: 3},
		{EOF: true, Hop: 3},
	}
	h := newStageHarness(nil)
	h.run(t, TaskPulseComp, feed)

	want := []string{
		"recv 0", "compute", "send 0 eof=false",
		"recv 1", "compute", "send 1 eof=false",
		"recv 2", "send 2 eof=true",
	}
	if !reflect.DeepEqual(h.log, want) {
		t.Errorf("call order\n got %v\nwant %v", h.log, want)
	}
	if fs := h.e.sup.Faults(); len(fs) != 0 {
		t.Fatalf("faults: %v", fs)
	}
	spans := h.e.obs.Journal()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want one per non-EOF CPI (2)", len(spans))
	}
	for i, ev := range spans {
		if ev.Task != TaskPulseComp || ev.Worker != 0 || ev.CPI != i {
			t.Errorf("span %d addressed %d/%d/%d", i, ev.Task, ev.Worker, ev.CPI)
		}
		if ev.Trace != feed[i].Trace || ev.Hop != feed[i].Hop {
			t.Errorf("span %d lineage %d/%d, want the received %d/%d", i, ev.Trace, ev.Hop, feed[i].Trace, feed[i].Hop)
		}
		if !(ev.T0 <= ev.T1 && ev.T1 <= ev.T2 && ev.T2 <= ev.T3) {
			t.Errorf("span %d stamps out of order: %+v", i, ev)
		}
	}
}

// TestStageLoopFaultPoint pins the fault address task:worker:cpi to the
// top of that CPI's iteration: an injected panic fires before the receive.
func TestStageLoopFaultPoint(t *testing.T) {
	h := newStageHarness(fault.MustParsePlan("cfar:0:1:panic").Injector(1))
	h.run(t, TaskCFAR, []ctl{{Reset: true}, {}, {EOF: true}})

	want := []string{"recv 0", "compute", "send 0 eof=false"}
	if !reflect.DeepEqual(h.log, want) {
		t.Errorf("calls before the fault\n got %v\nwant %v", h.log, want)
	}
	fs := h.e.sup.Faults()
	if len(fs) != 1 || fs[0].Task != TaskCFAR || fs[0].CPI != 1 || !strings.Contains(fs[0].Cause, "injected panic") {
		t.Errorf("faults = %v, want one injected panic at CFAR cpi 1", fs)
	}
	if !h.world.Aborted() {
		t.Error("world not aborted after the worker fault")
	}
}
