package pipeline

import (
	"math"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/obs"
	"pstap/internal/radar"
)

// TestObsGaugesAgreeWithResult checks the acceptance property of the
// telemetry layer: with the gauge window covering the whole run, the live
// eq. (1)/(2)/(3) gauges computed from the journal must agree with the
// post-hoc numbers the Result derives from the very same spans.
func TestObsGaugesAgreeWithResult(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	a := NewAssignment(2, 1, 1, 1, 1, 1, 1)
	ocfg := DefaultObsConfig(a)
	ocfg.Window = 64 // cover the whole run
	col := obs.New(ocfg)
	res, err := Run(Config{
		Scene:   sc,
		Assign:  a,
		NumCPIs: 8,
		Obs:     col,
	})
	if err != nil {
		t.Fatal(err)
	}

	g := col.Gauges()
	if g.WindowCPIs != 8 {
		t.Fatalf("window CPIs %d, want 8", g.WindowCPIs)
	}
	relClose := func(name string, got, want, tol float64) {
		t.Helper()
		if want == 0 {
			t.Fatalf("%s: reference value is 0", name)
		}
		if math.Abs(got-want)/math.Abs(want) > tol {
			t.Errorf("%s: live %v vs post-hoc %v", name, got, want)
		}
	}
	relClose("eq1 throughput", g.Eq1Throughput, res.EquationThroughput(), 0.01)
	relClose("eq2 latency", g.Eq2Latency.Seconds(), res.EquationLatency().Seconds(), 0.01)
	relClose("eq3 latency", g.Eq3Latency.Seconds(), res.Latency.Seconds(), 0.01)
	relClose("real throughput", g.RealThroughput, res.Throughput, 0.01)
	for task := 0; task < NumTasks; task++ {
		if d := g.Tasks[task].Total() - res.Stats[task].Total(); d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("task %d mean total: live %v vs post-hoc %v", task, g.Tasks[task].Total(), res.Stats[task].Total())
		}
	}

	// The mp hook and the world's own accounting must agree exactly.
	if col.Messages() != res.Messages {
		t.Errorf("obs messages %d, world %d", col.Messages(), res.Messages)
	}
	if col.Bytes() != res.BytesSent {
		t.Errorf("obs bytes %d, world %d", col.Bytes(), res.BytesSent)
	}
}

// TestResultEventsRoundTrip checks Events() is the run's journal: one
// span per worker per CPI, offsets relative to Start, lineage intact.
func TestResultEventsRoundTrip(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	a := NewAssignment(2, 1, 1, 1, 1, 1, 1)
	res, err := Run(Config{Scene: sc, Assign: a, NumCPIs: 4})
	if err != nil {
		t.Fatal(err)
	}
	evs := res.Events()
	if want := a.Total() * 4; len(evs) != want {
		t.Fatalf("events %d, want %d", len(evs), want)
	}
	seen := make(map[[3]int]bool)
	for _, ev := range evs {
		seen[[3]int{ev.Task, ev.Worker, ev.CPI}] = true
		if ev.T0 < 0 {
			t.Fatalf("event before Start: %+v", ev)
		}
		if ev.T0 > ev.T1 || ev.T1 > ev.T2 || ev.T2 > ev.T3 {
			t.Fatalf("non-monotonic event %+v", ev)
		}
	}
	if len(seen) != len(evs) {
		t.Fatalf("%d distinct (task, worker, cpi) in %d events", len(seen), len(evs))
	}
	checkLineage(t, evs)
	meta := res.TaskMeta()
	if len(meta) != NumTasks || meta[TaskDoppler].Workers != 2 {
		t.Fatalf("task meta %+v", meta)
	}
}

// TestStreamFeedsObs checks a persistent stream journals spans and
// messages across jobs, CPIs counting monotonically.
func TestStreamFeedsObs(t *testing.T) {
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
	// A stage sends before it emits its span, so the last CPI's CFAR span
	// can still be un-journaled when ProcessJob returns: wait for it.
	s := col.Snapshot()
	for deadline := time.Now().Add(2 * time.Second); s.Tasks[TaskCFAR].Workers[0].CPIs < 4 && time.Now().Before(deadline); s = col.Snapshot() {
		time.Sleep(time.Millisecond)
	}
	if got := s.Tasks[TaskCFAR].Workers[0].CPIs; got != 4 {
		t.Errorf("CFAR CPIs %d, want 4", got)
	}
	if s.Messages == 0 || s.Bytes == 0 {
		t.Errorf("no message accounting: %+v", s)
	}
	g := col.Gauges()
	if g.WindowCPIs != 4 {
		t.Errorf("window CPIs %d, want 4 (stream CPI indices must span jobs)", g.WindowCPIs)
	}
	if g.Eq1Throughput <= 0 || g.Eq3Samples == 0 {
		t.Errorf("live gauges not populated: %+v", g)
	}
}

// TestRunJournalHoldsLongRun guards the private journal's sizing: a run
// with more spans than obs's default 4096-event ring must still average
// over the whole [Warmup, NumCPIs-Cooldown) window.
func TestRunJournalHoldsLongRun(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	a := NewAssignment(4, 2, 4, 2, 2, 4, 2)
	const n, warm, cool = 210, 3, 2
	if a.Total()*n <= 4096 {
		t.Fatal("run fits the default ring; the test would be vacuous")
	}
	cubes := job(sc, 0, 4) // cycled: this test is about timing, not data
	res, err := Run(Config{Scene: sc, Assign: a, NumCPIs: n, Warmup: warm, Cooldown: cool,
		RawSource: func(i int) *cube.Cube { return cubes[i%len(cubes)] }})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Latencies) != n-warm-cool {
		t.Errorf("latencies %d, want %d", len(res.Latencies), n-warm-cool)
	}
	var perCPI [n]int
	for _, ev := range res.Spans {
		perCPI[ev.CPI]++
	}
	for cpi, c := range perCPI {
		if c != a.Total() {
			t.Fatalf("CPI %d has %d spans, want %d", cpi, c, a.Total())
		}
	}
}

// TestRunReusedCollector checks a collector handed to two Runs in turn:
// the second Result must be built from the second run's spans only, even
// though the first run's are still in the journal.
func TestRunReusedCollector(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	a := NewAssignment(2, 1, 1, 1, 1, 1, 1)
	const n = 4
	col := obs.New(DefaultObsConfig(a))
	var res [2]*Result
	for i := range res {
		var err error
		if res[i], err = Run(Config{Scene: sc, Assign: a, NumCPIs: n, Obs: col}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(col.Journal()); got != 2*a.Total()*n {
		t.Fatalf("journal %d spans, want both runs' %d", got, 2*a.Total()*n)
	}
	for i, r := range res {
		if len(r.Spans) != a.Total()*n {
			t.Errorf("run %d: %d spans, want %d", i, len(r.Spans), a.Total()*n)
		}
		for _, ev := range r.Spans {
			if ev.T0 < 0 || time.Duration(ev.T0) > r.Elapsed {
				t.Fatalf("run %d: span starts outside the run: %+v (elapsed %v)", i, ev, r.Elapsed)
			}
		}
		if r.Latency <= 0 || r.Latency > r.Elapsed {
			t.Errorf("run %d: latency %v outside (0, elapsed %v]", i, r.Latency, r.Elapsed)
		}
	}
}
