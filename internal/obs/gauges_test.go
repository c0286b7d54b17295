package obs

import (
	"reflect"
	"testing"
	"time"
)

// measureJournal is a hand-built journal over testConfig's tasks A (2
// workers) → B (1) → C (2), CPIs 0–5, 10 µs apart. Worker w of task t
// starts CPI c at c·10 µs + 10t + w ns. The measured CPIs 1–4 take 1, 2
// and 3 ns to receive, compute and send; warmup CPI 0 and cooldown CPI 5
// take 1000 times that, so including either moves every mean. CPI 3 is
// missing C's worker 1.
func measureJournal() []SpanEvent {
	var evs []SpanEvent
	for cpi := 0; cpi < 6; cpi++ {
		k := int64(1)
		if cpi == 0 || cpi == 5 {
			k = 1000
		}
		for task, tm := range testConfig().Tasks {
			for w := 0; w < tm.Workers; w++ {
				if cpi == 3 && task == 2 && w == 1 {
					continue
				}
				t0 := int64(cpi)*10000 + int64(10*task+w)
				evs = append(evs, SpanEvent{Task: task, Worker: w, CPI: cpi,
					T0: t0, T1: t0 + k, T2: t0 + 3*k, T3: t0 + 6*k})
			}
		}
	}
	return evs
}

// TestMeasure pins the one reader of a span journal: which spans count
// toward the task means, and which CPIs count toward eq. (3), the real
// throughput and Latencies.
func TestMeasure(t *testing.T) {
	cfg := testConfig()
	evs := measureJournal()
	// A complete CPI c is ready at c·10 µs (A's worker 0) and done when
	// C's worker 1 ends, 27 ns later.
	const lat = 27 * time.Nanosecond
	perTask := func(samples ...int) []PhaseMeans {
		out := make([]PhaseMeans, len(samples))
		for i, n := range samples {
			out[i] = PhaseMeans{Name: cfg.Tasks[i].Name, Recv: 1, Comp: 2, Send: 3, Samples: n}
		}
		return out
	}
	eq1 := 1 / (6 * time.Nanosecond).Seconds()
	for _, tc := range []struct {
		name      string
		cpis      []int
		tasks     []PhaseMeans
		latencies []time.Duration
		real      float64
	}{
		{
			name:      "warmup and cooldown excluded",
			cpis:      []int{1, 2, 4},
			tasks:     perTask(6, 3, 6),
			latencies: []time.Duration{lat, lat, lat},
			real:      2 / (30 * time.Microsecond).Seconds(),
		},
		{
			name:      "a CPI missing a final-task span counts toward the means only",
			cpis:      []int{1, 2, 3, 4},
			tasks:     perTask(8, 4, 7),
			latencies: []time.Duration{lat, lat, lat},
			real:      2 / (30 * time.Microsecond).Seconds(),
		},
		{
			name:  "only the incomplete CPI",
			cpis:  []int{3},
			tasks: perTask(2, 1, 1),
		},
		{
			name:      "one complete CPI has a latency but no throughput",
			cpis:      []int{2},
			tasks:     perTask(2, 1, 2),
			latencies: []time.Duration{lat},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := Measure(cfg.Tasks, cfg.LatencyPath, evs, tc.cpis)
			if g.WindowCPIs != len(tc.cpis) {
				t.Errorf("WindowCPIs %d, want %d", g.WindowCPIs, len(tc.cpis))
			}
			if !reflect.DeepEqual(g.Tasks, tc.tasks) {
				t.Errorf("task means %+v, want %+v", g.Tasks, tc.tasks)
			}
			if g.Eq1Throughput != eq1 {
				t.Errorf("eq1 %v, want %v", g.Eq1Throughput, eq1)
			}
			if want := 18 * time.Nanosecond; g.Eq2Latency != want {
				t.Errorf("eq2 %v, want %v", g.Eq2Latency, want)
			}
			if !reflect.DeepEqual(g.Latencies, tc.latencies) {
				t.Errorf("latencies %v, want %v", g.Latencies, tc.latencies)
			}
			var eq3 time.Duration
			if len(tc.latencies) > 0 {
				eq3 = lat
			}
			if g.Eq3Latency != eq3 || g.Eq3Samples != len(tc.latencies) {
				t.Errorf("eq3 %v over %d CPIs, want %v over %d", g.Eq3Latency, g.Eq3Samples, eq3, len(tc.latencies))
			}
			if g.RealThroughput != tc.real {
				t.Errorf("real throughput %v, want %v", g.RealThroughput, tc.real)
			}
		})
	}

	if g := Measure(cfg.Tasks, cfg.LatencyPath, evs, nil); g.WindowCPIs != 0 || g.Eq1Throughput != 0 || g.Latencies != nil {
		t.Errorf("empty window measured %+v", g)
	}
	if got, want := LastCPIs(evs, cfg.Tasks, 2), []int{4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("LastCPIs(2) = %v, want %v", got, want)
	}
}
