// Command stapbench regenerates every table and figure of the paper's
// evaluation section from this repository's implementation, each beside
// the published values of internal/paperdata, as markdown:
//
//	Table 1     flop counts per task (model vs paper)
//	Tables 2-6  inter-task communication times (Paragon model vs paper)
//	Table 7     integrated per-task timing for the three node assignments
//	Table 8     throughput and latency, equation vs real, vs paper
//	Tables 9-10 the extra-nodes experiments
//	Figure 11   per-task computation time and speedup vs node count
//
// The Paragon numbers come from the calibrated machine model in
// internal/paragon (the machine itself is long gone); -real also runs the
// actual Go pipeline on the host at a scaled-down problem size and
// reports measured wall-clock throughput/latency scaling.
//
// Usage:
//
//	stapbench -all > report.md   # the complete reproduction report
//	stapbench -table 8
//	stapbench -figure 11
//	stapbench -real
//	stapbench -quality -qout BENCH_quality.json
//
// -quality runs the detection-quality regression sweep: every
// internal/scenario catalog entry through the full parallel pipeline,
// scored against ground truth (internal/score) and checked against the
// pinned per-scenario P_d/P_fa/SINR-loss thresholds; the process exits
// nonzero when any scenario fails, making it a CI gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"pstap/internal/dessim"
	"pstap/internal/mesh"
	"pstap/internal/paperdata"
	"pstap/internal/paragon"
	"pstap/internal/pipeline"
	"pstap/internal/plan"
	"pstap/internal/plot"
	"pstap/internal/radar"
	"pstap/internal/roundrobin"
	"pstap/internal/stap"
)

var (
	flagTable   = flag.Int("table", 0, "print one table (1..10)")
	flagFigure  = flag.Int("figure", 0, "print one figure (11)")
	flagAll     = flag.Bool("all", false, "print every table and figure")
	flagReal    = flag.Bool("real", false, "also run the real Go pipeline at reduced scale")
	flagCPIs    = flag.Int("cpis", 12, "CPIs per real pipeline run")
	flagVerify  = flag.Bool("verify", false, "cross-validate the analytic model (discrete-event sim + mesh contention)")
	flagQuality = flag.Bool("quality", false, "run the detection-quality scenario sweep and write -qout")
	flagQSize   = flag.String("qsize", "small", "quality sweep problem size")
	flagQSeed   = flag.Int64("qseed", 1, "quality sweep scene seed")
	flagQOut    = flag.String("qout", "BENCH_quality.json", "quality sweep report file")
)

// The paper's three integrated-system cases, largest first.
var cases = []pipeline.Assignment{paperdata.Case1, paperdata.Case2, paperdata.Case3}

// section is one part of the report. id names the flag that selects it
// alone ("table N", "figure N", "verify", "real"); -all selects every
// section, and the title only with it.
type section struct {
	id    string
	print func(w io.Writer, mo *paragon.Model)
}

// sections is the report in order.
var sections = []section{
	{"", title},
	{"table 1", table1},
	{"table 2", func(w io.Writer, mo *paragon.Model) { commTable(w, mo, 2) }},
	{"table 3", func(w io.Writer, mo *paragon.Model) { commTable(w, mo, 3) }},
	{"table 4", func(w io.Writer, mo *paragon.Model) { commTable(w, mo, 4) }},
	{"table 5", func(w io.Writer, mo *paragon.Model) { commTable(w, mo, 5) }},
	{"table 6", func(w io.Writer, mo *paragon.Model) { commTable(w, mo, 6) }},
	{"table 7", table7},
	{"table 8", table8},
	{"table 9", func(w io.Writer, mo *paragon.Model) { table9or10(w, mo, 9) }},
	{"table 10", func(w io.Writer, mo *paragon.Model) { table9or10(w, mo, 10) }},
	{"figure 11", figure11},
	{"baseline", baseline},
	{"verify", verify},
	{"real", realPipeline},
}

// writeReport prints the sections sel picks, in report order, and
// reports whether it printed any.
func writeReport(w io.Writer, mo *paragon.Model, sel func(id string) bool) bool {
	printed := false
	for _, s := range sections {
		if sel(s.id) {
			s.print(w, mo)
			printed = true
		}
	}
	return printed
}

func main() {
	flag.Parse()
	mo := paragon.NewModel(paragon.AFRLParagon(), radar.Paper())
	printed := writeReport(os.Stdout, mo, func(id string) bool {
		return *flagAll || id != "" && (id == fmt.Sprintf("table %d", *flagTable) ||
			id == fmt.Sprintf("figure %d", *flagFigure) ||
			id == "verify" && *flagVerify || id == "real" && *flagReal)
	})
	if *flagQuality {
		if !runQuality(*flagQSize, *flagQSeed, *flagQOut) {
			os.Exit(1)
		}
		printed = true
	}
	if !printed {
		flag.Usage()
		os.Exit(2)
	}
}

// pct is got's relative error against the published want.
func pct(got, want float64) string {
	return fmt.Sprintf("%+.2f%%", 100*(got-want)/want)
}

func title(w io.Writer, _ *paragon.Model) {
	fmt.Fprintln(w, "# Reproduction report: Parallel Pipelined STAP (IPPS 1998)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Generated by `go run ./cmd/stapbench -all` from the implementation in this repository.")
	fmt.Fprintln(w, "Paragon figures come from the calibrated machine model (internal/paragon); the")
	fmt.Fprintln(w, "paper's published values (internal/paperdata) stand beside them.")
	fmt.Fprintln(w)
}

func table1(w io.Writer, _ *paragon.Model) {
	fmt.Fprintln(w, "## Table 1: floating point operations per CPI")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| task | model | paper | err |")
	fmt.Fprintln(w, "|---|---:|---:|---:|")
	got := stap.CountFlops(radar.Paper())
	for t, g := range got.PerTask() {
		p := paperdata.Table1[t]
		fmt.Fprintf(w, "| %s | %d | %d | %s |\n", stap.TaskNames[t], g, p, pct(float64(g), float64(p)))
	}
	fmt.Fprintf(w, "| **total** | %d | %d | %s |\n\n", got.Total(), paperdata.Table1Total,
		pct(float64(got.Total()), float64(paperdata.Table1Total)))
}

// commTable prints one of the paper's inter-task communication tables
// (2-6) beside the model's prediction of every entry.
func commTable(w io.Writer, mo *paragon.Model, n int) {
	c := paperdata.CommTables[n]
	fmt.Fprintf(w, "## Table %d: %s\n\n", n, c.Title)
	fmt.Fprintln(w, "Seconds per CPI; the tasks the table does not vary keep case 2's assignment.")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "| to | %s nodes | send | send (paper) | recv | recv (paper) |\n", stap.TaskNames[c.Src])
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|")
	for _, b := range c.Blocks {
		for si, sn := range c.SrcNodes {
			send, recv := mo.PairComm(c.Src, b.Dst, sn, b.DstNodes, paperdata.Case2)
			fmt.Fprintf(w, "| %s (%d) | %d | %.4f | %.4f | %.4f | %.4f |\n",
				stap.TaskNames[b.Dst], b.DstNodes, sn, send, b.Times[si][0], recv, b.Times[si][1])
		}
	}
	fmt.Fprintln(w)
	if c.Note != "" {
		fmt.Fprintln(w, c.Note)
		fmt.Fprintln(w)
	}
}

// taskTable prints a simulated assignment's per-task phase times; paper,
// when non-nil, adds the published compute time of each task.
func taskTable(w io.Writer, res paragon.SimResult, paper *[7]float64) {
	if paper != nil {
		fmt.Fprintln(w, "| task | nodes | recv | comp | comp (paper) | send | total |")
		fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|")
	} else {
		fmt.Fprintln(w, "| task | nodes | recv | comp | send | total |")
		fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|")
	}
	for t, ts := range res.Tasks {
		fmt.Fprintf(w, "| %s | %d | %.4f | %.4f ", stap.TaskNames[t], ts.Nodes, ts.Recv, ts.Comp)
		if paper != nil {
			fmt.Fprintf(w, "| %.4f ", paper[t])
		}
		fmt.Fprintf(w, "| %.4f | %.4f |\n", ts.Send, ts.Total)
	}
	fmt.Fprintln(w)
}

func table7(w io.Writer, mo *paragon.Model) {
	fmt.Fprintln(w, "## Table 7: integrated system performance (model, seconds)")
	fmt.Fprintln(w)
	for i, a := range cases {
		res := mo.Simulate(a)
		fmt.Fprintf(w, "### Case %d: %d nodes\n\n", i+1, a.Total())
		taskTable(w, res, &paperdata.Table7Comp[i])
		fmt.Fprintf(w, "Throughput %.4f CPI/s, latency %.4f s.\n\n", res.Throughput, res.RealLatency)
	}
}

func table8(w io.Writer, mo *paragon.Model) {
	fmt.Fprintln(w, "## Table 8: throughput and latency, equation vs real")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| nodes | thr (eq) | thr | paper thr (eq) | paper thr | err | lat (eq) | lat | paper lat (eq) | paper lat | err |")
	fmt.Fprintln(w, "|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
	for i, a := range cases {
		res := mo.Simulate(a)
		p := paperdata.Table8[i]
		fmt.Fprintf(w, "| %d | %.4f | %.4f | %.4f | %.4f | %s | %.4f | %.4f | %.4f | %.4f | %s |\n",
			a.Total(), res.Throughput, res.Throughput, p.ThroughputEq, p.ThroughputReal,
			pct(res.Throughput, p.ThroughputReal),
			res.EqLatency, res.RealLatency, p.LatencyEq, p.LatencyReal,
			pct(res.RealLatency, p.LatencyReal))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Model throughput is the steady-state 1/period in both columns; err compares the real columns.")
	fmt.Fprintln(w)
}

func table9or10(w io.Writer, mo *paragon.Model, n int) {
	a := paperdata.Table9
	paperThr, paperLat := paperdata.Table9Throughput, paperdata.Table9Latency
	heading := "case 2 + 4 Doppler nodes (122 total)"
	if n == 10 {
		a = paperdata.Tbl10
		paperThr, paperLat = paperdata.Table10Throughput, paperdata.Table10Latency
		heading = "Table 9 + 16 pulse-compression/CFAR nodes (138 total)"
	}
	fmt.Fprintf(w, "## Table %d: %s\n\n", n, heading)
	res := mo.Simulate(a)
	taskTable(w, res, nil)
	base := mo.Simulate(paperdata.Case2)
	fmt.Fprintln(w, "| | model | paper | err | vs case 2 |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|")
	fmt.Fprintf(w, "| throughput (CPI/s) | %.4f | %.4f | %s | %s |\n",
		res.Throughput, paperThr, pct(res.Throughput, paperThr), pct(res.Throughput, base.Throughput))
	fmt.Fprintf(w, "| latency (s) | %.4f | %.4f | %s | %s |\n",
		res.RealLatency, paperLat, pct(res.RealLatency, paperLat), pct(res.RealLatency, base.RealLatency))
	fmt.Fprintln(w)
}

func figure11(w io.Writer, mo *paragon.Model) {
	fmt.Fprintln(w, "## Figure 11: computation time and speedup vs nodes (model)")
	fmt.Fprintln(w)
	nodes := []int{1, 2, 4, 8, 16, 32, 64, 128}
	fmt.Fprint(w, "| task \\ nodes |")
	for _, n := range nodes {
		fmt.Fprintf(w, " %d |", n)
	}
	fmt.Fprint(w, "\n|---|")
	for range nodes {
		fmt.Fprint(w, "---:|")
	}
	fmt.Fprintln(w)
	for t := 0; t < pipeline.NumTasks; t++ {
		fmt.Fprintf(w, "| %s |", stap.TaskNames[t])
		for _, n := range nodes {
			fmt.Fprintf(w, " %.4f |", mo.CompTime(t, n))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprint(w, "| speedup (any) |")
	for _, n := range nodes {
		fmt.Fprintf(w, " %.1f |", mo.CompTime(0, 1)/mo.CompTime(0, n))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Linear speedup: computation partitions without intra-task communication.")
	fmt.Fprintln(w, "Computation time vs nodes (log-log; straight diagonals = linear speedup):")
	fmt.Fprintln(w)
	series := make([]plot.Series, 0, 3)
	for _, t := range []int{pipeline.TaskDoppler, pipeline.TaskHardWeight, pipeline.TaskCFAR} {
		xs := make([]float64, len(nodes))
		ys := make([]float64, len(nodes))
		for i, n := range nodes {
			xs[i] = float64(n)
			ys[i] = mo.CompTime(t, n)
		}
		series = append(series, plot.Series{Name: stap.TaskNames[t], X: xs, Y: ys})
	}
	fmt.Fprintf(w, "```text\n%s```\n\n", plot.LogLog(series, 64, 16))

	// Bonus: the optimizer's scaling curve (Section 4.1.2 automated).
	fmt.Fprintln(w, "Optimized assignments (internal/plan):")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| nodes | assignment | thr | lat |")
	fmt.Fprintln(w, "|---:|---|---:|---:|")
	for _, budget := range []int{59, 118, 236} {
		ranked, err := plan.Optimize(plan.Request{Model: mo, Nodes: budget, Top: 1})
		if err != nil {
			break
		}
		c := ranked[0]
		fmt.Fprintf(w, "| %d | %v | %.3f | %.3f |\n", budget, c.Assign, c.Throughput, c.RealLatency)
	}
	fmt.Fprintln(w)
}

func baseline(w io.Writer, mo *paragon.Model) {
	fmt.Fprintln(w, "## Baseline: RTMCARM round-robin (Section 2) vs parallel pipeline")
	fmt.Fprintln(w)
	flight := paperdata.RTMCARM
	fmt.Fprintf(w, "Flight demonstration reference (paper): %d nodes, %.0f CPI/s, %.2f s latency.\n\n",
		flight.Nodes, flight.Throughput, flight.Latency)
	fmt.Fprintln(w, "| nodes | round-robin thr | round-robin lat (s) | pipeline thr | pipeline lat (s) | latency gap |")
	fmt.Fprintln(w, "|---:|---:|---:|---:|---:|---:|")
	for i := len(cases) - 1; i >= 0; i-- {
		a := cases[i]
		rrThr, rrLat := roundrobin.SimulateModel(mo, a.Total())
		res := mo.Simulate(a)
		fmt.Fprintf(w, "| %d | %.2f | %.2f | %.2f | %.3f | %.0fx |\n",
			a.Total(), rrThr, rrLat, res.Throughput, res.RealLatency, rrLat/res.RealLatency)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Round-robin throughput scales with nodes but latency is pinned at the")
	fmt.Fprintln(w, "single-node serial time: the limitation the paper's pipeline removes.")
	rep := 4
	n, thr, lat := mo.SimulateReplicated(paperdata.Case3, rep)
	fmt.Fprintf(w, "Multiple pipelines (future work): %d x case 3 = %d nodes -> %.2f CPI/s at %.3f s latency.\n\n",
		rep, n, thr, lat)
}

func verify(w io.Writer, mo *paragon.Model) {
	fmt.Fprintln(w, "## Model verification: discrete-event simulation and mesh contention")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| nodes | DES thr | model thr | DES fill | model lat | max link B |")
	fmt.Fprintln(w, "|---:|---:|---:|---:|---:|---:|")
	msh := mesh.AFRL()
	maxRel := 0.0
	var links []int64 // busiest link's per-CPI load, smallest case first
	for i := len(cases) - 1; i >= 0; i-- {
		a := cases[i]
		des, err := dessim.Simulate(mo, a, 50)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dessim:", err)
			os.Exit(1)
		}
		ana := mo.Simulate(a)
		maxRel = math.Max(maxRel, math.Abs(des.Throughput-ana.Throughput)/ana.Throughput)
		rep := msh.Analyze(mesh.PipelineTraffic(mo, a))
		links = append(links, rep.MaxLinkLoad)
		fmt.Fprintf(w, "| %d | %.4f | %.4f | %.4f | %.4f | %d |\n",
			a.Total(), des.Throughput, ana.Throughput, des.FirstLatency, ana.RealLatency, rep.MaxLinkLoad)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Discrete-event simulation vs analytic steady state: max relative throughput deviation %.1e.\n", maxRel)
	fmt.Fprintf(w, "Mesh link contention: the busiest link carries %.1fx less per CPI at %d nodes than at %d,\n",
		float64(links[0])/float64(links[len(links)-1]), cases[0].Total(), cases[len(cases)-1].Total())
	fmt.Fprintln(w, "the contention relief behind Tables 2-6.")
	fmt.Fprintln(w)
}

func realPipeline(w io.Writer, _ *paragon.Model) {
	fmt.Fprintln(w, "## Real Go pipeline (host cores, reduced problem size)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| workers | total | thr (CPI/s) | latency | eq. thr (CPI/s) | bytes |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|")
	sc := radar.DefaultScene(radar.Small())
	for _, a := range []pipeline.Assignment{
		pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
		pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1),
		pipeline.NewAssignment(4, 2, 4, 2, 2, 4, 2),
	} {
		res, err := pipeline.Run(pipeline.Config{
			Scene: sc, Assign: a, NumCPIs: *flagCPIs, Warmup: 3, Cooldown: 2,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pipeline:", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "| %v | %d | %.1f | %v | %.1f | %d |\n",
			a, a.Total(), res.Throughput, res.Latency, res.EquationThroughput(), res.BytesSent)
	}
	fmt.Fprintln(w)
}
