// Command bench is the repository's benchmark: one program that prices
// the kernels, the pipeline, the wire and the serving layer on five named
// workloads, checks every returned detection report bit for bit against
// the serial reference, and prints every metric by name with its unit.
// BENCHMARK.json at the repository root names the command, the workloads
// and the gated metrics; README.md in this directory explains them.
//
// It is run from the repository root through bench/run.sh, which builds
// it. Without -workload it runs every workload; without -trace it runs
// both passes: 0, the untraced end-to-end pass, and 1, the traced
// per-layer pass. For each (workload, pass) it prints the table rows and,
// after the table, one JSON line with the metrics BENCHMARK.json lists for
// that pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// spec is BENCHMARK.json: the contract this program's output is checked
// against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// value is one metric as the result line and results.json carry it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line JSON summary of a (workload, pass).
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// line selects the listed metrics from a pass's output. A listed name the
// pass did not emit, or emitted with another unit, is an error: the
// contract and the program have drifted apart.
func line(listed []specMetric, win window, ms []metric) (resultLine, error) {
	byName := make(map[string]metric, len(ms))
	for _, m := range ms {
		byName[m.Name] = m
	}
	rl := resultLine{
		Correct:   win.failed == 0,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics:   make(map[string]value, len(listed)),
	}
	for _, want := range listed {
		m, ok := byName[want.Name]
		if !ok {
			return rl, fmt.Errorf("metric %s is listed in BENCHMARK.json but was not measured", want.Name)
		}
		if m.Unit != want.Unit {
			return rl, fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", want.Name, m.Unit, want.Unit)
		}
		rl.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	return rl, nil
}

// results is bench/out/results.json: every metric of every workload run,
// listed or not, with the run's settings.
type results struct {
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	NProc     int                       `json:"nproc"`
	Go        string                    `json:"go"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		names   = flag.String("workload", "", "comma-separated workloads to run (default: all)")
		seed    = flag.Int64("seed", 1, "workload seed (radar.Scene.Seed of the generated jobs)")
		seconds = flag.Float64("seconds", 15, "length of a pass's timed windows, in seconds")
		trace   = flag.String("trace", "both", "pass to run: 0 (untraced, end to end), 1 (traced, per layer) or both")
		out     = flag.String("out", "bench/out", "directory for results.json and <workload>.trace.json")
		agree   = flag.String("agree", "", "compare two results.json files, \"a,b\", against the bounds and exit")
	)
	flag.Parse()
	if err := run(*names, *seed, *seconds, *trace, *out, *agree); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run expects the repository root as working directory (bench/run.sh sees
// to that): BENCHMARK.json and the default -out are relative to it.
func run(names string, seed int64, seconds float64, trace, out, agree string) error {
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if agree != "" {
		a, b, ok := strings.Cut(agree, ",")
		if !ok {
			return fmt.Errorf("-agree wants two files, \"a,b\"")
		}
		return agreement(sp, a, b)
	}
	if trace != "0" && trace != "1" && trace != "both" {
		return fmt.Errorf("-trace %q: want 0, 1 or both", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds %v: want a positive length", seconds)
	}
	var wanted []string
	if names != "" {
		wanted = strings.Split(names, ",")
	} else {
		// The full run covers exactly the workloads the contract names.
		for _, sw := range sp.Workloads {
			wanted = append(wanted, sw.Name)
		}
	}
	var todo []workload
	for _, name := range wanted {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		todo = append(todo, w)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	d := time.Duration(seconds * float64(time.Second))
	passes := []struct {
		id     string
		listed []specMetric
		run    func(w workload) (window, []metric, error)
	}{
		{"0", sp.EndToEnd, func(w workload) (window, []metric, error) { return endToEnd(w, seed, d) }},
		{"1", sp.PerLayer, func(w workload) (window, []metric, error) {
			return perLayer(w, seed, d, filepath.Join(out, w.name+".trace.json"))
		}},
	}
	res := results{Seed: seed, Seconds: seconds, NProc: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Workloads: make(map[string]workloadResult)}
	var lines []resultLine
	failed := false
	fmt.Printf("%-12s %-28s %16s %s\n", "workload", "metric", "value", "unit")
	for _, w := range todo {
		wr := workloadResult{Metrics: make(map[string]value)}
		for _, p := range passes {
			if trace != "both" && trace != p.id {
				continue
			}
			win, ms, err := p.run(w)
			if err != nil {
				return err
			}
			for _, m := range ms {
				fmt.Printf("%-12s %-28s %16.6g %s\n", w.name, m.Name, m.Value, m.Unit)
				wr.Metrics[m.Name] = value{m.Value, m.Unit}
			}
			wr.Attempted += win.attempted
			wr.Failed += win.failed
			if win.failed > 0 {
				failed = true
				fmt.Fprintf(os.Stderr, "bench: %s: %d of %d jobs failed; first: %s\n", w.name, win.failed, win.attempted, win.firstFailure)
			}
			rl, err := line(p.listed, win, ms)
			if err != nil {
				return err
			}
			lines = append(lines, rl)
		}
		res.Workloads[w.name] = wr
	}

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "results.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, rl := range lines {
		data, err := json.Marshal(rl)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	}
	if failed {
		return fmt.Errorf("jobs failed (fail_frac > 0)")
	}
	return nil
}

func readResults(path string) (results, error) {
	var r results
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// agreement compares the gated end-to-end metrics of two runs of the same
// code, workload by workload: how much worse the second is than the first
// as a share of the first, against the metric's bound. It fails when any
// pair disagrees by more than its bound in either direction, since for two
// runs of one commit either order could have been "parent" and "change".
func agreement(sp *spec, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("%-12s %-12s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse_by", "bound")
	for _, sw := range sp.Workloads {
		wa, wb := a.Workloads[sw.Name], b.Workloads[sw.Name]
		for _, m := range sp.EndToEnd {
			va, okA := wa.Metrics[m.Name]
			vb, okB := wb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			worse := safeDiv(vb.Value-va.Value, va.Value)
			if m.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > m.Bound || -worse > m.Bound {
				mark = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-12s %-12s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", sw.Name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, mark)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) differ between the two runs by more than their bound", bad)
	}
	return nil
}
