package trace

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"pstap/internal/obs"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
)

func runPipeline(t *testing.T) *pipeline.Result {
	t.Helper()
	sc := radar.DefaultScene(radar.Small())
	res, err := pipeline.Run(pipeline.Config{
		Scene:   sc,
		Assign:  pipeline.NewAssignment(2, 1, 1, 1, 1, 1, 1),
		NumCPIs: 6,
		Warmup:  1, Cooldown: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGanttRendersAllWorkers(t *testing.T) {
	res := runPipeline(t)
	out := Gantt(res, Options{Width: 80})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// header + one row per worker (8 workers)
	if len(lines) != 1+8 {
		t.Fatalf("lines %d:\n%s", len(lines), out)
	}
	// every phase letter should occur somewhere
	for _, ph := range []string{"r", "C", "s"} {
		if !strings.Contains(out, ph) {
			t.Errorf("phase %q missing from trace:\n%s", ph, out)
		}
	}
	// Doppler has two workers
	if !strings.Contains(out, "Dopplerfilter #0") && !strings.Contains(out, "Dopplerfilter#0") {
		t.Errorf("worker labels missing:\n%s", lines[1])
	}
}

func TestGanttRowWidth(t *testing.T) {
	res := runPipeline(t)
	for _, width := range []int{40, 100, 200} {
		out := Gantt(res, Options{Width: width})
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		for _, line := range lines[1:] {
			// label is 19 chars ("%-14s#%-3d " = 14+1+3+1)
			if got := len(line) - 19; got != width {
				t.Fatalf("width %d row has %d columns: %q", width, got, line)
			}
		}
	}
}

func TestGanttEmptyWindow(t *testing.T) {
	res := &pipeline.Result{}
	if out := Gantt(res, Options{}); !strings.Contains(out, "empty") {
		t.Errorf("empty result should render empty-window notice, got %q", out)
	}
}

func TestGanttExplicitWindow(t *testing.T) {
	res := runPipeline(t)
	mid := res.Start.Add(res.Elapsed / 2)
	out := Gantt(res, Options{Width: 50, From: res.Start, To: mid})
	if !strings.Contains(out, "trace:") {
		t.Errorf("missing header: %q", out)
	}
}

func TestUtilizationSumsToHundred(t *testing.T) {
	res := runPipeline(t)
	out := Utilization(res)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+pipeline.NumTasks {
		t.Fatalf("lines %d:\n%s", len(lines), out)
	}
	for _, line := range lines[1:] {
		name := line[:16]
		fields := strings.Fields(line[16:])
		if len(fields) != 4 {
			t.Fatalf("parse %q", line)
		}
		var vals [4]float64
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSuffix(f, "%"), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", f, err)
			}
			vals[i] = v
		}
		recv, comp, send, idle := vals[0], vals[1], vals[2], vals[3]
		sum := recv + comp + send + idle
		if sum < 99.0 || sum > 101.0 {
			t.Errorf("%s: phases sum to %.1f%%", strings.TrimSpace(name), sum)
		}
		if recv < 0 || comp <= 0 {
			t.Errorf("%s: suspicious phases %v", name, line)
		}
	}
}

// clipFixture is a hand-built two-task event stream: task A works
// 0–30ms (10ms per phase), task B works 30–60ms.
func clipFixture() ([]obs.SpanEvent, []obs.TaskMeta, time.Time) {
	ms := time.Millisecond.Nanoseconds()
	events := []obs.SpanEvent{
		{Task: 0, Worker: 0, CPI: 0, T0: 0, T1: 10 * ms, T2: 20 * ms, T3: 30 * ms},
		{Task: 1, Worker: 0, CPI: 0, T0: 30 * ms, T1: 40 * ms, T2: 50 * ms, T3: 60 * ms},
	}
	tasks := []obs.TaskMeta{{Name: "A", Workers: 1}, {Name: "B", Workers: 1}}
	return events, tasks, time.Unix(1000, 0)
}

func rowFor(t *testing.T, out, label string) string {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, label) {
			return line[19:] // past the "%-14s#%-3d " label
		}
	}
	t.Fatalf("no row %q in:\n%s", label, out)
	return ""
}

func TestEventGanttFromClipsEarlyWork(t *testing.T) {
	events, tasks, start := clipFixture()
	out := EventGantt(events, tasks, start, Options{Width: 30, From: start.Add(30 * time.Millisecond)})
	// The window is B's half only: A must render fully idle, B fully busy.
	if a := rowFor(t, out, "A"); strings.Trim(a, string(Idle)) != "" {
		t.Errorf("A should be clipped out: %q", a)
	}
	if b := rowFor(t, out, "B"); strings.Contains(b, string(Idle)) {
		t.Errorf("B should fill the clipped window: %q", b)
	}
	if !strings.Contains(out, "30ms window") {
		t.Errorf("header should show the 30ms clipped window:\n%s", out)
	}
}

func TestEventGanttToClipsLateWork(t *testing.T) {
	events, tasks, start := clipFixture()
	out := EventGantt(events, tasks, start, Options{Width: 30, To: start.Add(30 * time.Millisecond)})
	if b := rowFor(t, out, "B"); strings.Trim(b, string(Idle)) != "" {
		t.Errorf("B should be clipped out: %q", b)
	}
	a := rowFor(t, out, "A")
	// 10ms per phase over a 30ms window at width 30: 10 columns each.
	for ph, want := range map[Phase]int{Recv: 10, Comp: 10, Send: 9} {
		if got := strings.Count(a, string(ph)); got < want {
			t.Errorf("phase %c: %d columns, want >= %d: %q", ph, got, want, a)
		}
	}
}

func TestEventGanttInvertedWindowIsEmpty(t *testing.T) {
	events, tasks, start := clipFixture()
	out := EventGantt(events, tasks, start, Options{
		From: start.Add(50 * time.Millisecond),
		To:   start.Add(10 * time.Millisecond),
	})
	if !strings.Contains(out, "empty window") {
		t.Errorf("inverted window should render the empty notice, got %q", out)
	}
}

func TestGanttWindowMatchesEventGantt(t *testing.T) {
	res := runPipeline(t)
	mid := res.Start.Add(res.Elapsed / 2)
	opt := Options{Width: 50, From: res.Start, To: mid}
	if got, want := Gantt(res, opt), EventGantt(res.Events(), res.TaskMeta(), res.Start, opt); got != want {
		t.Errorf("Gantt and EventGantt disagree:\n%s\nvs\n%s", got, want)
	}
}

func TestEventUtilization(t *testing.T) {
	events, tasks, _ := clipFixture()
	out := EventUtilization(events, tasks)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines:\n%s", out)
	}
	// Each task is busy half the 60ms wall: 16.7% per phase, 50% idle.
	for _, line := range lines[1:] {
		if !strings.Contains(line, "50.0%") {
			t.Errorf("expected 50%% idle: %q", line)
		}
	}
}
