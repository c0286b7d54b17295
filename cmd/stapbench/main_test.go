package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"pstap/internal/paperdata"
	"pstap/internal/paragon"
	"pstap/internal/radar"
)

// captureStdout runs f with stdout redirected and returns the output size.
func captureStdout(t *testing.T, f func()) int64 {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan int64)
	go func() {
		buf := make([]byte, 1<<16)
		var n int64
		for {
			k, err := r.Read(buf)
			n += int64(k)
			if err != nil {
				break
			}
		}
		done <- n
	}()
	f()
	w.Close()
	os.Stdout = old
	return <-done
}

func TestTablesPrintWithoutPanic(t *testing.T) {
	mo := paragon.NewModel(paragon.AFRLParagon(), radar.Paper())
	for _, sec := range sections {
		var b strings.Builder
		if !writeReport(&b, mo, func(id string) bool { return id == sec.id }) {
			t.Errorf("section %q not selected by its own id", sec.id)
		}
		if b.Len() < 100 {
			t.Errorf("section %q printed only %d bytes", sec.id, b.Len())
		}
	}
}

// TestReportContainsEverySection checks the -all report holds every
// section and every published value of internal/paperdata, formatted as
// the tables print them.
func TestReportContainsEverySection(t *testing.T) {
	var b strings.Builder
	writeReport(&b, paragon.NewModel(paragon.AFRLParagon(), radar.Paper()), func(string) bool { return true })
	out := b.String()
	want := []string{
		"# Reproduction report",
		"## Table 1:", "## Table 2:", "## Table 3:", "## Table 4:", "## Table 5:",
		"## Table 6:", "## Table 7:", "## Table 8:", "## Table 9:", "## Table 10:",
		"## Figure 11:", "## Baseline:", "## Model verification:", "## Real Go pipeline",
		"Discrete-event simulation vs analytic steady state",
		fmt.Sprintf("| %d |", paperdata.Table1Total),
		fmt.Sprintf("%d nodes, %.0f CPI/s, %.2f s latency", paperdata.RTMCARM.Nodes,
			paperdata.RTMCARM.Throughput, paperdata.RTMCARM.Latency),
	}
	four := func(v float64) string { return fmt.Sprintf("| %.4f |", v) }
	for _, v := range paperdata.Table1 {
		want = append(want, fmt.Sprintf("| %d |", v))
	}
	for _, c := range paperdata.Table7Comp {
		for _, v := range c {
			want = append(want, four(v))
		}
	}
	for _, r := range paperdata.Table8 {
		want = append(want, four(r.ThroughputEq), four(r.ThroughputReal), four(r.LatencyEq), four(r.LatencyReal))
	}
	want = append(want, four(paperdata.Table9Throughput), four(paperdata.Table9Latency),
		four(paperdata.Table10Throughput), four(paperdata.Table10Latency))
	for _, c := range paperdata.CommTables {
		for _, blk := range c.Blocks {
			for _, sr := range blk.Times {
				want = append(want, four(sr[0]), four(sr[1]))
			}
		}
	}
	for _, s := range want {
		if !strings.Contains(out, s) {
			t.Errorf("report missing %q", s)
		}
	}
}
