package pipeline

import (
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/obs"
	"pstap/internal/radar"
)

// wantHop is the task-hop depth each task's spans must carry: Doppler is
// the ingest (hop 0), the weight and beamforming tasks consume its
// forwarded data (hop 1), pulse compression consumes the beam streams
// (hop 2), CFAR the power stream (hop 3).
var wantHop = map[int]uint8{
	TaskDoppler:    0,
	TaskEasyWeight: 1,
	TaskHardWeight: 1,
	TaskEasyBF:     1,
	TaskHardBF:     1,
	TaskPulseComp:  2,
	TaskCFAR:       3,
}

// checkLineage asserts every span in evs carries a nonzero trace, spans
// of one CPI share exactly one trace, traces differ across CPIs, and hop
// depths match the task graph.
func checkLineage(t *testing.T, evs []obs.SpanEvent) {
	t.Helper()
	perCPI := make(map[int]uint64)
	traces := make(map[uint64]int)
	for _, ev := range evs {
		if ev.Trace == 0 {
			t.Fatalf("untraced span: %+v", ev)
		}
		if prev, ok := perCPI[ev.CPI]; ok && prev != ev.Trace {
			t.Fatalf("CPI %d spans carry two traces: %d and %d", ev.CPI, prev, ev.Trace)
		}
		perCPI[ev.CPI] = ev.Trace
		traces[ev.Trace]++
		if want := wantHop[ev.Task]; ev.Hop != want {
			t.Fatalf("task %d span at hop %d, want %d", ev.Task, ev.Hop, want)
		}
	}
	if len(traces) != len(perCPI) {
		t.Fatalf("%d CPIs share %d traces — trace ids must be per-CPI", len(perCPI), len(traces))
	}
}

// TestBatchRunTraceLineage checks the batch feeder stamps one trace per
// CPI and every worker span inherits it with the right hop depth.
func TestBatchRunTraceLineage(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	a := NewAssignment(2, 1, 1, 1, 1, 1, 1)
	col := obs.New(DefaultObsConfig(a))
	if _, err := Run(Config{Scene: sc, Assign: a, NumCPIs: 4, Obs: col}); err != nil {
		t.Fatal(err)
	}
	evs := col.Journal()
	if want := a.Total() * 4; len(evs) != want {
		t.Fatalf("journal %d spans, want %d", len(evs), want)
	}
	checkLineage(t, evs)
}

// TestHopSaturates checks the hop counter pins at 255 instead of
// wrapping: a forwarding cycle must never look like a fresh ingest.
func TestHopSaturates(t *testing.T) {
	c := ctl{Reset: true, Trace: 7, Hop: 253}
	for i := 0; i < 5; i++ {
		c = c.next()
	}
	if c.Hop != 255 {
		t.Fatalf("hop after saturation = %d, want 255", c.Hop)
	}
	if !c.Reset || c.Trace != 7 {
		t.Fatalf("next() lost control flags: %+v", c)
	}
}

// TestObsTraceOnPayloads checks every ctl-carrying message exposes its
// trace id to the transport and the weight messages (a different
// lineage) expose none.
func TestObsTraceOnPayloads(t *testing.T) {
	c := ctl{Trace: 42}
	traced := []any{
		&rawMsg{Ctl: c}, &easyTrainMsg{Ctl: c}, &hardTrainMsg{Ctl: c},
		&bfDataMsg{Ctl: c}, &beamMsg{Ctl: c}, &powerMsg{Ctl: c}, &detMsg{Ctl: c},
	}
	for _, m := range traced {
		if got := obs.TraceOf(m); got != 42 {
			t.Errorf("TraceOf(%T) = %d, want 42", m, got)
		}
	}
	for _, m := range []any{&easyWeightsMsg{}, &hardWeightsMsg{}} {
		if got := obs.TraceOf(m); got != 0 {
			t.Errorf("TraceOf(%T) = %d, want 0 (weights are off-lineage)", m, got)
		}
	}
}

// TestRunRecordsQueueWait checks the mp wait observer is wired: a batch
// run with a collector attributes some blocked-receive time to workers
// (downstream tasks necessarily wait on upstream compute).
func TestRunRecordsQueueWait(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	a := NewAssignment(1, 1, 1, 1, 1, 1, 1)
	col := obs.New(DefaultObsConfig(a))
	if _, err := Run(Config{Scene: sc, Assign: a, NumCPIs: 4, Obs: col}); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ts := range col.Snapshot().Tasks {
		for _, ws := range ts.Workers {
			if ws.Wait < 0 {
				t.Fatalf("negative wait: %+v", ws)
			}
			total += ws.Wait.Nanoseconds()
		}
	}
	if total <= 0 {
		t.Fatal("no queue-wait recorded by any worker")
	}
}

// TestRankTasks checks the rank→task map used to pin wire events to
// stages: task-major rank order, driver last as -1.
func TestRankTasks(t *testing.T) {
	a := NewAssignment(2, 1, 1, 1, 1, 1, 1)
	rt := RankTasks(a)
	if len(rt) != a.Total()+1 {
		t.Fatalf("len = %d, want %d", len(rt), a.Total()+1)
	}
	want := []int{0, 0, 1, 2, 3, 4, 5, 6, -1}
	for i, w := range want {
		if rt[i] != w {
			t.Fatalf("rank %d → task %d, want %d (full map %v)", i, rt[i], w, rt)
		}
	}
}

// TestStreamTraceLineage checks the persistent-stream feeder does the
// same across job boundaries (fresh traces per CPI, lineage intact).
func TestStreamTraceLineage(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	a := NewAssignment(1, 1, 1, 1, 1, 1, 1)
	col := obs.New(DefaultObsConfig(a))
	st, err := NewStream(StreamConfig{Scene: sc, Assign: a, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for job := 0; job < 2; job++ {
		cpis := []*cube.Cube{sc.GenerateCPI(0), sc.GenerateCPI(1)}
		if _, err := st.ProcessJob(cpis); err != nil {
			t.Fatal(err)
		}
	}
	// The CFAR worker journals its span after sending the detections that
	// complete ProcessJob, so the final span may still be in flight.
	want := a.Total() * 4
	evs := col.Journal()
	for deadline := time.Now().Add(2 * time.Second); len(evs) < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		evs = col.Journal()
	}
	if len(evs) != want {
		t.Fatalf("journal %d spans, want %d", len(evs), want)
	}
	checkLineage(t, evs)
}
