package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"pstap/internal/radar"
	"pstap/internal/score"
)

// runQuality sweeps every catalog scenario through the full parallel
// pipeline, scores detection quality against ground truth, writes the
// BENCH_quality.json report, and returns whether every scenario passed
// its pinned thresholds.
func runQuality(size string, seed int64, out string) bool {
	p, err := radar.ParamsFor(size)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unknown quality size %q\n", size)
		return false
	}

	results, pass, err := score.RunCatalog(score.RunConfig{Params: p, Seed: seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "quality sweep:", err)
		return false
	}

	report := score.QualityReport{
		Benchmark:   "QualityScenarioSweep",
		Description: "Detection-quality regression sweep: every internal/scenario catalog entry streamed through the full parallel pipeline, detections cross-validated bit-exact against the serial reference and scored against ground truth (Pd, Pfa vs CFAR design rate, SINR loss vs clairvoyant SMI weights).",
		Command:     fmt.Sprintf("go run ./cmd/stapbench -quality -qsize %s -qseed %d", size, seed),
		Date:        time.Now().Format("2006-01-02"),
		Goos:        runtime.GOOS,
		Goarch:      runtime.GOARCH,
		CPU:         cpuModel(),
		Config: map[string]any{
			"size":       size,
			"cube":       fmt.Sprintf("%dx%dx%d", p.K, p.J, p.N),
			"seed":       seed,
			"assignment": score.DefaultAssignment(),
			"design_pfa": score.DesignPfa(p),
		},
		Results: results,
		Pass:    pass,
		Notes: []string{
			"Pd/Pfa/SINR numbers are deterministic in (size, seed): the sweep is bit-reproducible, so any change is a real behavior change, not noise.",
			"Thresholds are pinned at the measured full-dimension baseline plus margin; tighten them when the chain improves, never loosen to absorb a regression without a documented cause.",
			"Elevated Pfa ratios versus the CA-CFAR design rate are expected: clutter residue and (in swarm) untapered Doppler sidelobes of strong targets are real physics of the paper's chain, priced into the pins.",
		},
	}
	blob, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return false
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return false
	}
	qualityTable(os.Stdout, &report)
	fmt.Printf("Wrote %s.\n\n", out)
	return pass
}

// qualityTable renders a sweep's report: every scenario's scores beside
// its pinned thresholds, then the gate's verdict.
func qualityTable(w io.Writer, rep *score.QualityReport) {
	fmt.Fprintln(w, "## Detection quality: scenario sweep")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "`%s`: pipeline detections (cube %v) scored against scenario ground truth;\n",
		rep.Command, rep.Config["cube"])
	fmt.Fprintf(w, "design P_fa %.3g, thresholds pinned per scenario (DESIGN.md §13).\n\n", rep.Config["design_pfa"])
	fmt.Fprintln(w, "| scenario | P_d | min P_d | P_fa | ×design | max ×design | SINR loss mean / max (dB) | max loss (dB) | status |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---:|---|")
	for _, r := range rep.Results {
		status := "pass"
		if !r.Pass {
			status = "**FAIL** (" + strings.Join(r.Failures, "; ") + ")"
		}
		fmt.Fprintf(w, "| %s | %.4f | %.2f | %.3g | %.2fx | %.1fx | %.2f / %.2f | %.1f | %s |\n",
			r.Scenario, r.Pd, r.Thresholds.MinPd, r.Pfa, r.PfaRatio, r.Thresholds.MaxPfaRatio,
			r.MeanSINRLossDB, r.MaxSINRLossDB, r.Thresholds.MaxSINRLossDB, status)
	}
	fmt.Fprintln(w)
	if rep.Pass {
		fmt.Fprintln(w, "All scenarios within pinned thresholds.")
	} else {
		fmt.Fprintln(w, "**Quality gate failing**: see the per-scenario failures above.")
	}
	fmt.Fprintln(w)
}

// cpuModel best-effort reads the host CPU model for the report envelope.
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, val, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return runtime.GOARCH
}
