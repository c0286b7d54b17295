package main

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"pstap/internal/leakcheck"
)

const testWindow = 300 * time.Millisecond

func loadSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSmoke runs both passes of every workload BENCHMARK.json names with
// short windows: every listed metric must be emitted with its unit, no job
// may fail, and nothing may be left running.
func TestSmoke(t *testing.T) {
	leakcheck.Check(t)
	sp := loadSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for _, sw := range sp.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", sw.Name)
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			win, ms, err := endToEnd(w, 1, testWindow)
			if err != nil {
				t.Fatal(err)
			}
			checkPass(t, sp.EndToEnd, win, ms)
			for _, m := range ms {
				if m.Name == "fail_frac" && m.Value != 0 {
					t.Errorf("fail_frac = %v", m.Value)
				}
			}

			win, first, err := perLayer(w, 1, testWindow, filepath.Join(t.TempDir(), "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			checkPass(t, sp.PerLayer, win, first)

			// The counts a later change may rest a claim on must repeat.
			if testing.Short() && w.params.K > 64 {
				return // a second medium pass costs ~5 s
			}
			_, second, err := perLayer(w, 1, testWindow, filepath.Join(t.TempDir(), "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			a, b := byName(first), byName(second)
			for _, name := range []string{"pipeline.msgs_per_cpi", "pipeline.bytes_per_cpi", "wire.bytes_per_cube", "dist.msgs_per_cpi"} {
				if _, ok := a[name]; ok && a[name] != b[name] {
					t.Errorf("%s does not repeat: %v then %v", name, a[name], b[name])
				}
			}
			// Link byte totals include heartbeat and credit frames, whose
			// number depends on timing (README: predictions).
			if v, ok := a["dist.bytes_per_cpi"]; ok && math.Abs(v-b["dist.bytes_per_cpi"]) > 0.01*v {
				t.Errorf("dist.bytes_per_cpi differs by more than 1%%: %v then %v", v, b["dist.bytes_per_cpi"])
			}
		})
	}
}

func byName(ms []metric) map[string]float64 {
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out
}

func checkPass(t *testing.T, listed []specMetric, win window, ms []metric) {
	t.Helper()
	if win.attempted == 0 || win.failed != 0 {
		t.Errorf("attempted %d, failed %d (%s)", win.attempted, win.failed, win.firstFailure)
	}
	rl, err := line(listed, win, ms)
	if err != nil {
		t.Error(err)
	}
	if !rl.Correct || len(rl.Metrics) != len(listed) {
		t.Errorf("result line: correct=%v, %d of %d listed metrics", rl.Correct, len(rl.Metrics), len(listed))
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	asc := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{{50, 50}, {90, 90}, {91, 100}, {99, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20}} {
		if got := percentile(asc, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{20000, 99.9}, {1000, 99}, {999, 95}, {100, 90}, {50, 75}, {30, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestQuartiles pins the helper to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v, %v, want 1, 3", q1, q3)
	}
}

func TestSliceRates(t *testing.T) {
	// 20 jobs of 4 units completing every 10 ms from t=0, except that the
	// 7th takes 110 ms: one slow slice, and the median ignores it.
	var ends []int64
	now := int64(0)
	for i := 0; i < 20; i++ {
		now += 10e6
		if i == 6 {
			now += 100e6
		}
		ends = append(ends, now)
	}
	rates := sliceRates(0, ends, 4, 10)
	if len(rates) != 10 {
		t.Fatalf("%d slices, want 10", len(rates))
	}
	if got := median(rates); math.Abs(got-400) > 1e-9 {
		t.Errorf("median slice rate = %v, want 400", got)
	}
	if math.Abs(rates[3]-8/0.120) > 1e-9 {
		t.Errorf("slow slice rate = %v, want %v", rates[3], 8/0.120)
	}
	// Fewer completions than slices: one slice per completion.
	if got := sliceRates(0, ends[:3], 4, 10); len(got) != 3 {
		t.Errorf("3 completions gave %d slices", len(got))
	}
	if got := sliceRates(0, nil, 4, 10); len(got) != 0 {
		t.Errorf("no completions gave %d slices", len(got))
	}
}
