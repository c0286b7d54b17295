package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// testConfig is a 3-task toy pipeline: A (2 workers) -> B (1) -> C (2),
// latency measured A -> C.
func testConfig() Config {
	return Config{
		Tasks: []TaskMeta{
			{Name: "A", Workers: 2},
			{Name: "B", Workers: 1},
			{Name: "C", Workers: 2},
		},
		LatencyPath: [][]int{{0}, {1}, {2}},
	}
}

// record emits one synthetic span: worker (task, w) processed cpi with
// the given phase durations, starting at start.
func record(c *Collector, task, w, cpi int, start time.Time, recv, comp, send time.Duration) {
	t0 := start
	t1 := t0.Add(recv)
	t2 := t1.Add(comp)
	t3 := t2.Add(send)
	c.RecordSpan(task, w, cpi, t0, t1, t2, t3)
}

func TestCountersAccumulate(t *testing.T) {
	c := New(testConfig())
	base := c.Start()
	record(c, 0, 0, 0, base, 1*time.Millisecond, 2*time.Millisecond, 3*time.Millisecond)
	record(c, 0, 0, 1, base.Add(10*time.Millisecond), 1*time.Millisecond, 2*time.Millisecond, 3*time.Millisecond)
	record(c, 1, 0, 0, base, 4*time.Millisecond, 5*time.Millisecond, 6*time.Millisecond)
	c.OnSend(100)
	c.OnSend(250)

	s := c.Snapshot()
	w := s.Tasks[0].Workers[0]
	if w.CPIs != 2 || w.Recv != 2*time.Millisecond || w.Comp != 4*time.Millisecond || w.Send != 6*time.Millisecond {
		t.Errorf("task A worker 0 counters: %+v", w)
	}
	if got := s.Tasks[1].Workers[0]; got.CPIs != 1 || got.Comp != 5*time.Millisecond {
		t.Errorf("task B worker 0 counters: %+v", got)
	}
	if s.Messages != 2 || s.Bytes != 350 {
		t.Errorf("messages %d bytes %d", s.Messages, s.Bytes)
	}
}

func TestJournalOrderAndWraparound(t *testing.T) {
	cfg := testConfig()
	cfg.RingSize = 8
	c := New(cfg)
	base := c.Start()
	for i := 0; i < 20; i++ {
		record(c, 0, 0, i, base.Add(time.Duration(i)*time.Millisecond), time.Microsecond, time.Microsecond, time.Microsecond)
	}
	evs := c.Journal()
	if len(evs) != 8 {
		t.Fatalf("journal holds %d events, want ring size 8", len(evs))
	}
	for i, ev := range evs {
		if want := 12 + i; ev.CPI != want {
			t.Errorf("journal[%d].CPI = %d, want %d", i, ev.CPI, want)
		}
	}
}

// TestRecordAllocatesNothing: a journal slot holds its event by value, so
// recording a span or a wire event allocates nothing — 100 records into a
// ring of 8 wrap it many times over.
func TestRecordAllocatesNothing(t *testing.T) {
	cfg := testConfig()
	cfg.RingSize = 8
	c := New(cfg)
	t0 := c.Start()
	t1 := t0.Add(time.Microsecond)
	if n := testing.AllocsPerRun(100, func() { c.RecordTracedSpan(0, 1, 3, 7, 2, t0, t1, t1, t1) }); n != 0 {
		t.Errorf("RecordTracedSpan: %v allocations per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.RecordWire(WireEvent{Dir: WireSend, Trace: 7, Bytes: 64}) }); n != 0 {
		t.Errorf("RecordWire: %v allocations per call, want 0", n)
	}
	if evs := c.Journal(); len(evs) != 8 || evs[7].Trace != 7 || evs[7].Hop != 2 {
		t.Errorf("span journal after the runs: %+v", evs)
	}
	if evs := c.WireJournal(); len(evs) != 8 || evs[7].Bytes != 64 {
		t.Errorf("wire journal after the runs: %+v", evs)
	}
}

func TestGaugesMatchHandComputation(t *testing.T) {
	c := New(testConfig())
	base := c.Start()
	// Two CPIs flowing A(2 workers) -> B -> C(2 workers); B is the
	// bottleneck at 30ms total per CPI.
	for cpi := 0; cpi < 2; cpi++ {
		off := base.Add(time.Duration(cpi) * 40 * time.Millisecond)
		record(c, 0, 0, cpi, off, 2*time.Millisecond, 6*time.Millisecond, 2*time.Millisecond)
		record(c, 0, 1, cpi, off.Add(time.Millisecond), 2*time.Millisecond, 6*time.Millisecond, 2*time.Millisecond)
		record(c, 1, 0, cpi, off.Add(10*time.Millisecond), 5*time.Millisecond, 20*time.Millisecond, 5*time.Millisecond)
		record(c, 2, 0, cpi, off.Add(40*time.Millisecond), 1*time.Millisecond, 3*time.Millisecond, 1*time.Millisecond)
		record(c, 2, 1, cpi, off.Add(41*time.Millisecond), 1*time.Millisecond, 3*time.Millisecond, 1*time.Millisecond)
	}
	g := c.Gauges()
	if g.WindowCPIs != 2 {
		t.Fatalf("window CPIs %d", g.WindowCPIs)
	}
	if g.Tasks[1].Total() != 30*time.Millisecond {
		t.Errorf("task B mean total %v, want 30ms", g.Tasks[1].Total())
	}
	// Eq 1: bottleneck is B at 30ms -> 33.33 CPI/s.
	if want := 1 / (30 * time.Millisecond).Seconds(); !approx(g.Eq1Throughput, want, 1e-9) {
		t.Errorf("eq1 %v, want %v", g.Eq1Throughput, want)
	}
	// Eq 2: 10ms + 30ms + 5ms.
	if want := 45 * time.Millisecond; g.Eq2Latency != want {
		t.Errorf("eq2 %v, want %v", g.Eq2Latency, want)
	}
	// Eq 3: ready = min A T0 = off; done = max C T3 = off+41ms+5ms.
	if want := 46 * time.Millisecond; g.Eq3Latency != want || g.Eq3Samples != 2 {
		t.Errorf("eq3 %v (%d samples), want %v (2)", g.Eq3Latency, g.Eq3Samples, want)
	}
	// Real throughput: completion gap is exactly one CPI per 40ms.
	if want := 1 / (40 * time.Millisecond).Seconds(); !approx(g.RealThroughput, want, 1e-6) {
		t.Errorf("real throughput %v, want %v", g.RealThroughput, want)
	}
}

func TestGaugesIgnoreIncompleteCPI(t *testing.T) {
	c := New(testConfig())
	base := c.Start()
	// CPI 0 is complete, CPI 1 has no C spans yet: eq3 must only count
	// CPI 0.
	for cpi := 0; cpi < 2; cpi++ {
		off := base.Add(time.Duration(cpi) * 40 * time.Millisecond)
		record(c, 0, 0, cpi, off, time.Millisecond, time.Millisecond, time.Millisecond)
		record(c, 0, 1, cpi, off, time.Millisecond, time.Millisecond, time.Millisecond)
	}
	record(c, 2, 0, 0, base.Add(10*time.Millisecond), time.Millisecond, time.Millisecond, time.Millisecond)
	record(c, 2, 1, 0, base.Add(10*time.Millisecond), time.Millisecond, time.Millisecond, time.Millisecond)
	g := c.Gauges()
	if g.Eq3Samples != 1 {
		t.Errorf("eq3 samples %d, want 1", g.Eq3Samples)
	}
	if want := 13 * time.Millisecond; g.Eq3Latency != want {
		t.Errorf("eq3 %v, want %v", g.Eq3Latency, want)
	}
}

func TestGaugesWindowSlides(t *testing.T) {
	cfg := testConfig()
	cfg.Window = 4
	cfg.RingSize = 1024
	c := New(cfg)
	base := c.Start()
	// 10 CPIs; the early ones are slow, the last 4 fast. The window must
	// only see the fast ones.
	for cpi := 0; cpi < 10; cpi++ {
		comp := 50 * time.Millisecond
		if cpi >= 6 {
			comp = 5 * time.Millisecond
		}
		off := base.Add(time.Duration(cpi) * 60 * time.Millisecond)
		record(c, 0, 0, cpi, off, time.Millisecond, comp, time.Millisecond)
		record(c, 0, 1, cpi, off, time.Millisecond, comp, time.Millisecond)
		record(c, 1, 0, cpi, off, time.Millisecond, comp, time.Millisecond)
		record(c, 2, 0, cpi, off, time.Millisecond, comp, time.Millisecond)
		record(c, 2, 1, cpi, off, time.Millisecond, comp, time.Millisecond)
	}
	g := c.Gauges()
	if g.WindowCPIs != 4 {
		t.Fatalf("window CPIs %d, want 4", g.WindowCPIs)
	}
	if want := 7 * time.Millisecond; g.Tasks[0].Total() != want {
		t.Errorf("windowed task A total %v, want %v (slow CPIs must have aged out)", g.Tasks[0].Total(), want)
	}
}

func TestConcurrentRecordingIsSafe(t *testing.T) {
	cfg := testConfig()
	cfg.RingSize = 64
	c := New(cfg)
	base := c.Start()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers scrape while writers record — the -race build checks this.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Gauges()
					c.Snapshot()
				}
			}
		}()
	}
	for task, tm := range c.Tasks() {
		for w := 0; w < tm.Workers; w++ {
			wg.Add(1)
			go func(task, w int) {
				defer wg.Done()
				for cpi := 0; cpi < 200; cpi++ {
					record(c, task, w, cpi, base.Add(time.Duration(cpi)*time.Microsecond),
						time.Microsecond, time.Microsecond, time.Microsecond)
					c.OnSend(64)
				}
			}(task, w)
		}
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	s := c.Snapshot()
	var cpis int64
	for _, ts := range s.Tasks {
		for _, ws := range ts.Workers {
			cpis += ws.CPIs
		}
	}
	if want := int64(5 * 200); cpis != want {
		t.Errorf("total CPIs %d, want %d", cpis, want)
	}
	if s.Messages != 1000 {
		t.Errorf("messages %d, want 1000", s.Messages)
	}
}

func TestSlowCPILog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	cfg := testConfig()
	cfg.SlowMultiple = 3
	cfg.SlowLogf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	c := New(cfg)
	base := c.Start()
	// Build up a steady median, then one outlier 10x slower.
	for cpi := 0; cpi < 20; cpi++ {
		record(c, 0, 0, cpi, base, time.Millisecond, time.Millisecond, time.Millisecond)
	}
	record(c, 0, 0, 20, base, time.Millisecond, 28*time.Millisecond, time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("slow log lines %d, want 1: %q", len(lines), lines)
	}
	for _, want := range []string{`task="A"`, "worker=0", "cpi=20"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("slow log line missing %q: %q", want, lines[0])
		}
	}
}

func TestTracedSpanLineage(t *testing.T) {
	c := New(testConfig())
	base := c.Start()
	tr := NewTraceID()
	if tr == 0 {
		t.Fatal("NewTraceID returned the reserved zero id")
	}
	if tr2 := NewTraceID(); tr2 == tr {
		t.Fatalf("trace ids repeat: %d", tr)
	}
	c.RecordTracedSpan(0, 0, 7, tr, 0, base, base, base, base)
	c.RecordTracedSpan(2, 1, 7, tr, 3, base, base, base, base)
	record(c, 1, 0, 7, base, 0, 0, 0) // untraced producer
	evs := c.Journal()
	if len(evs) != 3 {
		t.Fatalf("journal %d events, want 3", len(evs))
	}
	if evs[0].Trace != tr || evs[0].Hop != 0 {
		t.Errorf("ingest span lineage %d/%d, want %d/0", evs[0].Trace, evs[0].Hop, tr)
	}
	if evs[1].Trace != tr || evs[1].Hop != 3 {
		t.Errorf("hop-3 span lineage %d/%d, want %d/3", evs[1].Trace, evs[1].Hop, tr)
	}
	if evs[2].Trace != 0 {
		t.Errorf("RecordSpan must journal trace 0, got %d", evs[2].Trace)
	}
}

func TestWindowClampedToRing(t *testing.T) {
	// 5 workers total, ring of 16: a 32-CPI window cannot fit (needs 160
	// slots), so New must clamp to 16/5 = 3 and warn — never silently
	// report a partial eq. (1) window.
	var mu sync.Mutex
	var warnings []string
	cfg := testConfig()
	cfg.RingSize = 16
	cfg.Window = 32
	cfg.Logf = func(format string, args ...any) {
		mu.Lock()
		warnings = append(warnings, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	c := New(cfg)
	if got := c.Window(); got != 3 {
		t.Fatalf("clamped window %d, want 3", got)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "clamping window to 3") {
		t.Errorf("clamp warning %q", warnings)
	}

	// Feed more CPIs than the window: the gauges must report exactly the
	// clamped window, and every reported CPI must be backed by a full
	// complement of spans (no wraparound-truncated CPIs).
	base := c.Start()
	for cpi := 0; cpi < 10; cpi++ {
		off := base.Add(time.Duration(cpi) * 10 * time.Millisecond)
		record(c, 0, 0, cpi, off, time.Millisecond, time.Millisecond, time.Millisecond)
		record(c, 0, 1, cpi, off, time.Millisecond, time.Millisecond, time.Millisecond)
		record(c, 1, 0, cpi, off, time.Millisecond, time.Millisecond, time.Millisecond)
		record(c, 2, 0, cpi, off, time.Millisecond, time.Millisecond, time.Millisecond)
		record(c, 2, 1, cpi, off, time.Millisecond, time.Millisecond, time.Millisecond)
	}
	g := c.Gauges()
	if g.WindowCPIs != 3 {
		t.Errorf("gauge window %d CPIs, want the clamped 3", g.WindowCPIs)
	}
	if g.Eq3Samples != 3 {
		t.Errorf("eq3 samples %d, want 3 complete CPIs", g.Eq3Samples)
	}
	// A window of 1 worker-equivalent ring must still clamp to >= 1.
	cfg.RingSize = 2
	cfg.Logf = nil
	if got := New(cfg).Window(); got != 1 {
		t.Errorf("tiny ring window %d, want 1", got)
	}
}

func TestSlowLogRing(t *testing.T) {
	cfg := testConfig()
	cfg.SlowMultiple = 3
	// No SlowLogf: the ring must fill anyway.
	c := New(cfg)
	base := c.Start()
	// Interleave three fast spans per slow one so the median stays fast
	// and every slow span keeps getting flagged; more slow spans than the
	// ring holds forces a wrap.
	cpi, lastSlow := 0, 0
	for i := 0; i < slowLogSize+16; i++ {
		for j := 0; j < 3; j++ {
			record(c, 0, 0, cpi, base, time.Millisecond, time.Millisecond, time.Millisecond)
			cpi++
		}
		record(c, 0, 0, cpi, base, time.Millisecond, 28*time.Millisecond, time.Millisecond)
		lastSlow = cpi
		cpi++
	}
	lines := c.SlowLog()
	if len(lines) != slowLogSize {
		t.Fatalf("slow log holds %d lines, want the full ring of %d", len(lines), slowLogSize)
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, fmt.Sprintf("cpi=%d", lastSlow)) {
		t.Errorf("newest slow line %q does not mention the last slow CPI %d", last, lastSlow)
	}
	for i := 1; i < len(lines); i++ {
		if lines[i] == "" {
			t.Fatalf("empty slow log line at %d", i)
		}
	}
}

func TestComputeGaugesIgnoresForeignTasks(t *testing.T) {
	tasks := testConfig().Tasks
	path := [][]int{{0}, {2}}
	evs := []SpanEvent{
		{Task: 0, Worker: 0, CPI: 0, T0: 0, T1: 1, T2: 2, T3: 3},
		{Task: 9, Worker: 0, CPI: 0, T0: 0, T1: 1, T2: 2, T3: 3}, // foreign journal
		{Task: 9, Worker: 0, CPI: 7, T0: 4, T1: 5, T2: 6, T3: 7}, // foreign, above every real CPI
	}
	g := ComputeGauges(tasks, 8, path, evs)
	if g.Tasks[0].Samples != 1 {
		t.Errorf("task 0 samples %d, want 1", g.Tasks[0].Samples)
	}
	if g.WindowCPIs != 1 {
		t.Errorf("window holds %d CPIs, want 1: a foreign task's CPI must not count", g.WindowCPIs)
	}
	// A one-CPI window is the highest real CPI, not the foreign one.
	if g := ComputeGauges(tasks, 1, path, evs); g.Tasks[0].Samples != 1 {
		t.Errorf("one-CPI window: task 0 samples %d, want 1", g.Tasks[0].Samples)
	}
}

func TestLatencyPathValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range latency path must panic")
		}
	}()
	New(Config{Tasks: []TaskMeta{{Name: "A", Workers: 1}}, LatencyPath: [][]int{{3}}})
}

func approx(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*(1+b)
}
