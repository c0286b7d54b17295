package obs

import (
	"bytes"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// WriteProm and WriteAttrProm are what the exposition tests call: the
// collector and attribution sub-tables, one replica label per source,
// through the one renderer.
func WriteProm(w io.Writer, cols []*Collector) {
	var fams []Family
	for i, c := range cols {
		l := []Label{{"replica", strconv.Itoa(i)}}
		fams = append(fams, CollectorFamilies(l, c)...)
		fams = append(fams, GaugeFamilies("stap_", "r{replica}/", nil, l, c.Gauges())...)
	}
	WriteFamilies(w, fams)
}

func WriteAttrProm(w io.Writer, reps []*BottleneckReport) {
	var fams []Family
	for i, rep := range reps {
		fams = append(fams, AttrFamilies("r{replica}/attr/", []Label{{"replica", strconv.Itoa(i)}}, func() *BottleneckReport { return rep })...)
	}
	WriteFamilies(w, fams)
}

// TestObserveFamilies checks the history renderer: templates expand over
// label values, scrape-only families are never collected, and a sample
// missing a label its template names is skipped rather than observed
// under a malformed name.
func TestObserveFamilies(t *testing.T) {
	fams := []Family{
		Sample("m_total", "counter", "h", "serve/m_total", nil, 3),
		{Name: "link_rtt", Type: "gauge", Help: "h", Series: "r{replica}/link/m{member}/rtt_seconds", Collect: func(emit func([]Label, float64)) {
			emit([]Label{{"replica", "1"}, {"member", "2"}}, 0.5)
			emit([]Label{{"replica", "1"}}, 9) // no member label
		}},
		{Name: "scrape_only", Type: "gauge", Help: "h", Collect: func(func([]Label, float64)) {
			t.Error("scrape-only family collected by the history renderer")
		}},
	}
	got := map[string]float64{}
	ObserveFamilies(fams, func(series string, v float64) { got[series] = v })
	want := map[string]float64{"serve/m_total": 3, "r1/link/m2/rtt_seconds": 0.5}
	if len(got) != len(want) {
		t.Errorf("observed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("series %q = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
	for k := range got {
		if strings.ContainsAny(k, "{}") {
			t.Errorf("malformed series name %q", k)
		}
	}
}

// TestWriteFamilies checks the exposition renderer's two special cases:
// rows sharing a Name share one head wherever they sit in the table, and
// a histogram row's observations come out as cumulative buckets, sum and
// count.
func TestWriteFamilies(t *testing.T) {
	var buf bytes.Buffer
	WriteFamilies(&buf, []Family{
		Sample("lat", "gauge", "h", "p50", []Label{{"quantile", "0.5"}}, 1),
		Sample("other", "gauge", "h", "", nil, 7),
		Sample("lat", "gauge", "h", "p99", []Label{{"quantile", "0.99"}}, 2),
		{Name: "d_seconds", Type: "histogram", Help: "h", Collect: func(emit func([]Label, float64)) {
			for _, v := range []float64{5e-5, 1e-4, 0.5, 100} {
				emit([]Label{{"task", "A"}}, v)
			}
		}},
	})
	out := buf.String()
	if n := strings.Count(out, "# TYPE lat gauge"); n != 1 {
		t.Errorf("shared-name rows wrote %d heads, want 1:\n%s", n, out)
	}
	for _, want := range []string{
		`lat{quantile="0.5"} 1` + "\n" + `lat{quantile="0.99"} 2` + "\n# HELP other",
		"# TYPE d_seconds histogram",
		`d_seconds_bucket{task="A",le="0.0001"} 2`,
		`d_seconds_bucket{task="A",le="0.1"} 2`,
		`d_seconds_bucket{task="A",le="1"} 3`,
		`d_seconds_bucket{task="A",le="10"} 3`,
		`d_seconds_bucket{task="A",le="+Inf"} 4`,
		`d_seconds_sum{task="A"} 100.50015`,
		`d_seconds_count{task="A"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRuntimeFamilies checks the runtime rows read live values on both
// surfaces.
func TestRuntimeFamilies(t *testing.T) {
	got := map[string]float64{}
	ObserveFamilies(RuntimeFamilies(), func(series string, v float64) { got[series] = v })
	for _, name := range []string{"runtime/goroutines", "runtime/heap_alloc_bytes_total", "runtime/heap_alloc_objects_total"} {
		if got[name] <= 0 {
			t.Errorf("%s = %v, want > 0 (all: %v)", name, got[name], got)
		}
	}
	if _, ok := got["runtime/gc_pause_cpu_seconds_total"]; !ok || len(got) != 6 {
		t.Errorf("runtime series %v, want the six declared", got)
	}
}

// TestRuntimeCPUClasses checks the two CPU-class rows render on the
// exposition, idle never exceeds total, and neither goes backwards across
// two reads with work between them.
func TestRuntimeCPUClasses(t *testing.T) {
	read := func() (total, idle float64) {
		got := map[string]float64{}
		ObserveFamilies(RuntimeFamilies(), func(series string, v float64) { got[series] = v })
		total, idle = got["runtime/cpu_total_seconds_total"], got["runtime/cpu_idle_seconds_total"]
		if idle > total {
			t.Errorf("cpu idle %v s exceeds cpu total %v s", idle, total)
		}
		return total, idle
	}
	var buf bytes.Buffer
	WriteFamilies(&buf, RuntimeFamilies())
	for _, want := range []string{"# TYPE stap_runtime_cpu_total_seconds_total counter", "# TYPE stap_runtime_cpu_idle_seconds_total counter"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
	total0, idle0 := read()
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	total1, idle1 := read()
	if total1 < total0 || idle1 < idle0 {
		t.Errorf("CPU classes went backwards: total %v → %v s, idle %v → %v s", total0, total1, idle0, idle1)
	}
}
