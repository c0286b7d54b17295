// Command stappipe runs the real parallel pipelined STAP system on
// synthetic CPI data and reports per-task timing, throughput, latency and
// the detection summary.
//
// Usage:
//
//	stappipe -nodes 4,2,4,2,2,4,2 -cpis 25 -size small
//	stappipe -size paper -cpis 8   # full 512x16x128 cubes (slow)
//
// The -nodes flag takes seven comma-separated worker counts in task order:
// Doppler, easy weight, hard weight, easy BF, hard BF, pulse compression,
// CFAR.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pstap/internal/cpifile"
	"pstap/internal/obs"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/stap"
	"pstap/internal/trace"
)

var (
	flagNodes    = flag.String("nodes", "2,1,2,1,1,2,1", "worker counts for the 7 tasks")
	flagCPIs     = flag.Int("cpis", 25, "number of CPIs to stream")
	flagSize     = flag.String("size", "small", "problem size: small | medium | paper")
	flagSeed     = flag.Int64("seed", 1, "scene random seed")
	flagVerbose  = flag.Bool("v", false, "print every detection")
	flagReplay   = flag.String("replay", "", "replay a recorded CPI stream (stapgen output) instead of synthesizing")
	flagTrace    = flag.Bool("trace", false, "print a Gantt execution trace and per-task utilization")
	flagPerfetto = flag.String("perfetto", "", "write a Perfetto-loadable Chrome trace of the run to this file")
	flagThreads  = flag.Int("threads", 1, "threads per worker (the Paragon had 3 processors per node)")
)

func main() {
	flag.Parse()
	var p radar.Params
	var replay *cpifile.File
	if *flagReplay != "" {
		var err error
		replay, err = cpifile.Load(*flagReplay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			os.Exit(1)
		}
		p = replay.Params
		if *flagCPIs > len(replay.CPIs) {
			*flagCPIs = len(replay.CPIs)
		}
	} else {
		var err error
		if p, err = radar.ParamsFor(*flagSize); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	parts := strings.Split(*flagNodes, ",")
	if len(parts) != pipeline.NumTasks {
		fmt.Fprintf(os.Stderr, "-nodes needs %d counts, got %d\n", pipeline.NumTasks, len(parts))
		os.Exit(2)
	}
	var a pipeline.Assignment
	for i, s := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bad node count:", err)
			os.Exit(2)
		}
		a[i] = n
	}
	sc := radar.DefaultScene(p)
	sc.Seed = *flagSeed
	cfg := pipeline.Config{Scene: sc, Assign: a, NumCPIs: *flagCPIs, Threads: *flagThreads}
	if replay != nil {
		sc.Targets = replay.Targets
		sc.Seed = replay.Seed
		cfg.RawSource = replay.Replay()
	}
	if *flagCPIs > 3+2 {
		cfg.Warmup, cfg.Cooldown = 3, 2
	}
	res, err := pipeline.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipeline:", err)
		os.Exit(1)
	}

	fmt.Printf("parallel pipelined STAP: %s problem, %d CPIs, %d workers\n",
		*flagSize, *flagCPIs, a.Total())
	fmt.Printf("%-16s %6s %12s %12s %12s %12s\n", "task", "#nodes", "recv", "comp", "send", "total")
	for t, s := range res.Stats {
		fmt.Printf("%-16s %6d %12v %12v %12v %12v\n",
			stap.TaskNames[t], a[t], s.Recv, s.Comp, s.Send, s.Total())
	}
	fmt.Printf("\nthroughput (measured)  %10.2f CPI/s\n", res.Throughput)
	fmt.Printf("throughput (eq. 1)     %10.2f CPI/s\n", res.EquationThroughput())
	fmt.Printf("latency    (measured)  %12v  (p50 %v, p95 %v)\n",
		res.Latency, res.LatencyPercentile(0.5), res.LatencyPercentile(0.95))
	fmt.Printf("latency    (eq. 2)     %12v\n", res.EquationLatency())
	fmt.Printf("inter-task traffic     %10d bytes in %d messages\n", res.BytesSent, res.Messages)
	fmt.Printf("wall time              %12v\n\n", res.Elapsed)

	if *flagTrace {
		fmt.Println(trace.Gantt(res, trace.Options{Width: 100}))
		fmt.Println(trace.Utilization(res))
	}
	if *flagPerfetto != "" {
		f, err := os.Create(*flagPerfetto)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfetto:", err)
			os.Exit(1)
		}
		err = obs.WriteChromeTrace(f, res.Events(), res.TaskMeta())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfetto:", err)
			os.Exit(1)
		}
		fmt.Printf("perfetto trace written to %s (open at https://ui.perfetto.dev)\n\n", *flagPerfetto)
	}

	beamAz := sc.BeamAzimuths()
	last := res.Detections[len(res.Detections)-1]
	fmt.Printf("detections on final CPI: %d\n", len(last))
	for _, det := range last {
		mark := ""
		for ti, tgt := range sc.Targets {
			if stap.MatchesTarget(p, det, tgt, beamAz) {
				mark = fmt.Sprintf("  <= injected target %d", ti)
			}
		}
		if *flagVerbose || mark != "" {
			fmt.Printf("  %v%s\n", det, mark)
		}
	}
}
