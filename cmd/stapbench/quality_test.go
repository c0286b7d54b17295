package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pstap/internal/score"
)

// TestRunQuality exercises the -quality path end to end: the sweep runs,
// passes its pinned thresholds, and the report round-trips.
func TestRunQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("quality sweep in -short mode")
	}
	out := filepath.Join(t.TempDir(), "BENCH_quality.json")
	if n := captureStdout(t, func() {
		if !runQuality("small", 1, out) {
			t.Error("quality sweep failed its pinned thresholds")
		}
	}); n < 100 {
		t.Errorf("quality sweep printed only %d bytes", n)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep score.QualityReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Benchmark != "QualityScenarioSweep" || len(rep.Results) < 6 || !rep.Pass {
		t.Errorf("report: benchmark=%q results=%d pass=%v", rep.Benchmark, len(rep.Results), rep.Pass)
	}
	for _, r := range rep.Results {
		if r.Tally.NumTruth == 0 {
			t.Errorf("%s: no truth scored", r.Scenario)
		}
	}
}

// TestRunQualityBadSize: unknown sizes fail cleanly.
func TestRunQualityBadSize(t *testing.T) {
	if runQuality("huge", 1, filepath.Join(t.TempDir(), "x.json")) {
		t.Error("unknown size accepted")
	}
}

// TestQualitySection renders the committed sweep report: every scenario's
// scores beside its pinned thresholds, then the verdict.
func TestQualitySection(t *testing.T) {
	blob, err := os.ReadFile("../../BENCH_quality.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep score.QualityReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	qualityTable(&b, &rep)
	out := b.String()
	want := []string{
		"## Detection quality", "| baseline |", "| swarm |", "| crossers |",
		"All scenarios within pinned thresholds.",
	}
	for _, r := range rep.Results {
		th := r.Thresholds
		want = append(want, fmt.Sprintf("| %s | %.4f | %.2f |", r.Scenario, r.Pd, th.MinPd),
			fmt.Sprintf("x | %.1fx |", th.MaxPfaRatio), fmt.Sprintf(" | %.1f | pass |", th.MaxSINRLossDB))
	}
	for _, s := range want {
		if !strings.Contains(out, s) {
			t.Errorf("quality section missing %q", s)
		}
	}

	rep.Pass, rep.Results[0].Pass, rep.Results[0].Failures = false, false, []string{"Pd 0.5 < 0.9"}
	b.Reset()
	qualityTable(&b, &rep)
	if !strings.Contains(b.String(), "**FAIL** (Pd 0.5 < 0.9)") || !strings.Contains(b.String(), "Quality gate failing") {
		t.Error("a failing scenario is not rendered as failing")
	}
}
