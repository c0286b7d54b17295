// Command stapbench regenerates every table and figure of the paper's
// evaluation section from this repository's implementation:
//
//	Table 1     flop counts per task (model vs paper)
//	Tables 2-6  inter-task communication times (Paragon model vs paper)
//	Table 7     integrated per-task timing for the three node assignments
//	Table 8     throughput and latency, equation vs real, vs paper
//	Tables 9-10 the extra-nodes experiments
//	Figure 11   per-task computation time and speedup vs node count
//
// The Paragon numbers come from the calibrated machine model in
// internal/paragon (the machine itself is long gone); pass -real to also
// run the actual Go pipeline on the host at a scaled-down problem size and
// report measured wall-clock throughput/latency scaling.
//
// Usage:
//
//	stapbench -all
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

func main() {
	flag.Parse()
	mo := paragon.NewModel(paragon.AFRLParagon(), radar.Paper())
	printed := false
	want := func(t int) bool {
		return *flagAll || *flagTable == t
	}
	if want(1) {
		table1()
		printed = true
	}
	if want(2) {
		table2(mo)
		printed = true
	}
	for t := 3; t <= 6; t++ {
		if want(t) {
			commTable(mo, t)
			printed = true
		}
	}
	if want(7) {
		table7(mo)
		printed = true
	}
	if want(8) {
		table8(mo)
		printed = true
	}
	if want(9) {
		table9or10(mo, 9)
		printed = true
	}
	if want(10) {
		table9or10(mo, 10)
		printed = true
	}
	if *flagAll || *flagFigure == 11 {
		figure11(mo)
		printed = true
	}
	if *flagAll {
		baseline(mo)
		printed = true
	}
	if *flagAll || *flagVerify {
		verify(mo)
		printed = true
	}
	if *flagReal || *flagAll {
		realPipeline()
		printed = true
	}
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

func table1() {
	fmt.Println("== Table 1: floating point operations per CPI ==")
	got := stap.CountFlops(radar.Paper())
	paper := stap.PaperTable1()
	g, p := got.PerTask(), paper.PerTask()
	fmt.Printf("%-22s %15s %15s %8s\n", "task", "model", "paper", "err%")
	for i := range g {
		fmt.Printf("%-22s %15d %15d %7.2f%%\n", stap.TaskNames[i], g[i], p[i],
			100*(float64(g[i])-float64(p[i]))/float64(p[i]))
	}
	fmt.Printf("%-22s %15d %15d %7.2f%%\n\n", "Total", got.Total(), paper.Total(),
		100*(float64(got.Total())-float64(paper.Total()))/float64(paper.Total()))
}

// commCase describes one of the paper's inter-task communication tables.
type commCase struct {
	title    string
	src, dst int
	srcN     []int
	dstN     []int
	// paper[dstIdx][srcIdx] = {send, recv}
	paper [][][2]float64
}

// table2 prints all five successor columns of the paper's Table 2.
func table2(mo *paragon.Model) {
	fmt.Println("== Table 2: Doppler filter -> successor tasks ==")
	fmt.Println("(context: case-2 assignment for unlisted tasks; times in seconds)")
	cols := []struct {
		name  string
		dst   int
		dstN  int
		paper [3][2]float64 // per Doppler node count {send, recv}
	}{
		{"easy weight(16)", pipeline.TaskEasyWeight, 16, [3][2]float64{{.1332, .4339}, {.0679, .1780}, {.0340, .0511}}},
		{"hard weight(56)", pipeline.TaskHardWeight, 56, [3][2]float64{{.1332, .3603}, {.0679, .1048}, {.0332, .0034}}},
		{"hard weight(112)", pipeline.TaskHardWeight, 112, [3][2]float64{{.1332, .4441}, {.0679, .1837}, {.0340, .0563}}},
		{"easy BF(16)", pipeline.TaskEasyBF, 16, [3][2]float64{{.1332, .4509}, {.0679, .1955}, {.0340, .0646}}},
		{"hard BF(16)", pipeline.TaskHardBF, 16, [3][2]float64{{.1332, .4395}, {.0679, .1843}, {.0340, .0519}}},
	}
	for _, c := range cols {
		fmt.Printf("--- Doppler -> %s ---\n", c.name)
		fmt.Printf("%10s | %9s %9s | %9s %9s\n", "#doppler", "send", "recv", "send(p)", "recv(p)")
		for si, p0 := range []int{8, 16, 32} {
			send, recv := mo.PairComm(pipeline.TaskDoppler, c.dst, p0, c.dstN, paperdata.Case2)
			fmt.Printf("%10d | %9.4f %9.4f | %9.4f %9.4f\n",
				p0, send, recv, c.paper[si][0], c.paper[si][1])
		}
	}
	fmt.Println("((p) columns are the paper's measured values; the paper's 112-node hard-weight")
	fmt.Println(" column appears to carry the easy-BF timing — our model reports the prediction)")
	fmt.Println()
}

func commTables() map[int]commCase {
	return map[int]commCase{
		3: {
			title: "Table 3: easy weight -> easy beamforming",
			src:   pipeline.TaskEasyWeight, dst: pipeline.TaskEasyBF,
			srcN: []int{4, 8, 16}, dstN: []int{8, 16},
			paper: [][][2]float64{
				{{.0005, .1956}, {.0088, .0883}, {.0768, .0807}},
				{{.0007, .2570}, {.0004, .0905}, {.0003, .0660}},
			},
		},
		4: {
			title: "Table 4: hard weight -> hard beamforming",
			src:   pipeline.TaskHardWeight, dst: pipeline.TaskHardBF,
			srcN: []int{28, 56, 112}, dstN: []int{8, 16},
			paper: [][][2]float64{
				{{.0007, .1798}, {.0100, .1468}, {.1824, .1398}},
				{{.0007, .2485}, {.0065, .0765}, {.0005, .0543}},
			},
		},
		5: {
			title: "Table 5: easy beamforming -> pulse compression",
			src:   pipeline.TaskEasyBF, dst: pipeline.TaskPulseComp,
			srcN: []int{4, 8, 16}, dstN: []int{8, 16},
			paper: [][][2]float64{
				{{.0069, .5016}, {.0036, .1379}, {.0580, .0771}},
				{{.0069, .5714}, {.0036, .2090}, {.0022, .0569}},
			},
		},
		6: {
			title: "Table 6: pulse compression -> CFAR",
			src:   pipeline.TaskPulseComp, dst: pipeline.TaskCFAR,
			srcN: []int{4, 8, 16}, dstN: []int{4, 8},
			paper: [][][2]float64{
				{{.0099, .3351}, {.0053, .0662}, {.1256, .0435}},
				{{.0098, .3348}, {.0051, .1750}, {.0028, .1783}},
			},
		},
	}
}

func commTable(mo *paragon.Model, n int) {
	c := commTables()[n]
	fmt.Printf("== %s ==\n", c.title)
	fmt.Printf("(context: case-2 assignment for unlisted tasks; times in seconds)\n")
	for di, dn := range c.dstN {
		fmt.Printf("--- %s nodes = %d ---\n", stap.TaskNames[c.dst], dn)
		fmt.Printf("%10s | %9s %9s | %9s %9s\n", "#src", "send", "recv", "send(p)", "recv(p)")
		for si, sn := range c.srcN {
			send, recv := mo.PairComm(c.src, c.dst, sn, dn, paperdata.Case2)
			fmt.Printf("%10d | %9.4f %9.4f | %9.4f %9.4f\n",
				sn, send, recv, c.paper[di][si][0], c.paper[di][si][1])
		}
	}
	fmt.Println("((p) columns are the paper's measured values))")
	fmt.Println()
}

func table7(mo *paragon.Model) {
	fmt.Println("== Table 7: integrated system performance (model, seconds) ==")
	for i, a := range cases {
		res := mo.Simulate(a)
		fmt.Printf("--- case %d: total nodes = %d ---\n", i+1, a.Total())
		fmt.Printf("%-16s %6s %8s %8s %8s %8s\n", "task", "#nodes", "recv", "comp", "send", "total")
		for t, ts := range res.Tasks {
			fmt.Printf("%-16s %6d %8.4f %8.4f %8.4f %8.4f\n",
				stap.TaskNames[t], ts.Nodes, ts.Recv, ts.Comp, ts.Send, ts.Total)
		}
		fmt.Printf("throughput %8.4f CPI/s   latency %8.4f s\n\n", res.Throughput, res.RealLatency)
	}
}

func table8(mo *paragon.Model) {
	fmt.Println("== Table 8: throughput and latency, equation vs real ==")
	fmt.Printf("%8s | %9s %9s %9s %9s | %9s %9s %9s %9s\n",
		"#nodes", "thr(eq)", "thr", "lat(eq)", "lat", "p.thr(eq)", "p.thr", "p.lat(eq)", "p.lat")
	for i, a := range cases {
		res := mo.Simulate(a)
		p := paperdata.Table8[i]
		fmt.Printf("%8d | %9.4f %9.4f %9.4f %9.4f | %9.4f %9.4f %9.4f %9.4f\n",
			a.Total(), res.Throughput, res.Throughput, res.EqLatency, res.RealLatency,
			p.ThroughputEq, p.ThroughputReal, p.LatencyEq, p.LatencyReal)
	}
	fmt.Println("(model throughput is the steady-state 1/period for both columns)")
	fmt.Println()
}

func table9or10(mo *paragon.Model, n int) {
	a := paperdata.Table9
	paperThr, paperLat := paperdata.Table9Throughput, paperdata.Table9Latency
	title := "Table 9: case 2 + 4 Doppler nodes (122 total)"
	if n == 10 {
		a = paperdata.Tbl10
		paperThr, paperLat = paperdata.Table10Throughput, paperdata.Table10Latency
		title = "Table 10: Table 9 + 16 pulse-compression/CFAR nodes (138 total)"
	}
	fmt.Printf("== %s ==\n", title)
	res := mo.Simulate(a)
	fmt.Printf("%-16s %6s %8s %8s %8s %8s\n", "task", "#nodes", "recv", "comp", "send", "total")
	for t, ts := range res.Tasks {
		fmt.Printf("%-16s %6d %8.4f %8.4f %8.4f %8.4f\n",
			stap.TaskNames[t], ts.Nodes, ts.Recv, ts.Comp, ts.Send, ts.Total)
	}
	fmt.Printf("throughput %.4f (paper %.4f)   latency %.4f (paper %.4f)\n",
		res.Throughput, paperThr, res.RealLatency, paperLat)
	base := mo.Simulate(paperdata.Case2)
	fmt.Printf("vs case 2: throughput %+.1f%%, latency %+.1f%%\n\n",
		100*(res.Throughput/base.Throughput-1), 100*(res.RealLatency/base.RealLatency-1))
}

func figure11(mo *paragon.Model) {
	fmt.Println("== Figure 11: computation time and speedup vs nodes (model) ==")
	nodes := []int{1, 2, 4, 8, 16, 32, 64, 128}
	fmt.Printf("%-16s", "task\\nodes")
	for _, n := range nodes {
		fmt.Printf(" %9d", n)
	}
	fmt.Println()
	for t := 0; t < pipeline.NumTasks; t++ {
		fmt.Printf("%-16s", stap.TaskNames[t])
		for _, n := range nodes {
			fmt.Printf(" %9.4f", mo.CompTime(t, n))
		}
		fmt.Println()
	}
	fmt.Printf("%-16s", "speedup(any)")
	for _, n := range nodes {
		fmt.Printf(" %9.1f", mo.CompTime(0, 1)/mo.CompTime(0, n))
	}
	fmt.Println("\n(linear speedup: computation partitions without intra-task communication)")
	fmt.Println()
	fmt.Println("computation time vs nodes (log-log; straight diagonals = linear speedup):")
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
	fmt.Println(plot.LogLog(series, 64, 16))

	// Bonus: the optimizer's scaling curve (Section 4.1.2 automated).
	fmt.Println("optimized assignments (plan):")
	for _, budget := range []int{59, 118, 236} {
		ranked, err := plan.Optimize(plan.Request{Model: mo, Nodes: budget, Top: 1})
		if err != nil {
			break
		}
		c := ranked[0]
		fmt.Printf("  %3d nodes -> %v  thr=%.3f lat=%.3f\n", budget, c.Assign, c.Throughput, c.RealLatency)
	}
	fmt.Println()
}

func baseline(mo *paragon.Model) {
	fmt.Println("== Baseline: RTMCARM round-robin (Section 2) vs parallel pipeline ==")
	nodes, flightThr, flightLat := roundrobin.RTMCARMReference()
	fmt.Printf("flight demonstration reference: %d nodes, %.0f CPI/s, %.2f s latency\n",
		nodes, flightThr, flightLat)
	fmt.Printf("%8s | %22s | %22s\n", "#nodes", "round-robin thr/lat", "pipeline thr/lat")
	for i := len(cases) - 1; i >= 0; i-- {
		a := cases[i]
		rrThr, rrLat := roundrobin.SimulateModel(mo, a.Total())
		res := mo.Simulate(a)
		fmt.Printf("%8d | %9.2f  %9.2f s | %9.2f  %9.2f s\n",
			a.Total(), rrThr, rrLat, res.Throughput, res.RealLatency)
	}
	fmt.Println("(round-robin throughput scales with nodes but latency is pinned at the")
	fmt.Println(" single-node serial time — the limitation the paper's pipeline removes)")
	fmt.Println()
	rep := 4
	n, thr, lat := mo.SimulateReplicated(paperdata.Case3, rep)
	fmt.Printf("multiple pipelines (future work): %d x case-3 = %d nodes -> %.2f CPI/s at %.3f s latency\n\n",
		rep, n, thr, lat)
}

func verify(mo *paragon.Model) {
	fmt.Println("== Model verification: discrete-event simulation & mesh contention ==")
	fmt.Printf("%8s | %10s %10s | %10s %10s | %12s\n",
		"#nodes", "DES thr", "model thr", "DES fill", "model lat", "max link B")
	msh := mesh.AFRL()
	for i := len(cases) - 1; i >= 0; i-- {
		a := cases[i]
		des, err := dessim.Simulate(mo, a, 50)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dessim:", err)
			os.Exit(1)
		}
		ana := mo.Simulate(a)
		rep := msh.Analyze(mesh.PipelineTraffic(mo, a))
		fmt.Printf("%8d | %10.4f %10.4f | %10.4f %10.4f | %12d\n",
			a.Total(), des.Throughput, ana.Throughput, des.FirstLatency, ana.RealLatency, rep.MaxLinkLoad)
	}
	fmt.Println("(DES derives the steady-state period from the event recurrence; it matches")
	fmt.Println(" the analytic max-busy-time model to machine precision. The busiest mesh")
	fmt.Println(" link's per-CPI load drops superlinearly as groups grow — the contention")
	fmt.Println(" mechanism behind Tables 2-6.)")
	fmt.Println()
}

func realPipeline() {
	fmt.Println("== Real Go pipeline (host cores, reduced problem size) ==")
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
		fmt.Printf("workers %v (total %2d): throughput %8.1f CPI/s  latency %10v  eqThr %8.1f  bytes %d\n",
			a, a.Total(), res.Throughput, res.Latency, res.EquationThroughput(), res.BytesSent)
	}
	fmt.Println()
}
