// Command stapplan searches task→node placements against the paragon
// cost model (see internal/plan) and prints the ranked candidates with
// their predicted eq. 1-3 numbers. It answers both directions of the
// bi-criteria mapping problem: the fastest pipeline under a latency
// bound, or the lowest-latency one above a throughput floor.
//
// With -emit the best candidate is written as an HMAC-signed plan file
// that stapd -planfile consumes to drive a stapnode cluster; with
// -observe the model is first calibrated from a running stapd's /plan
// report, so the search runs against measured costs instead of the seed
// profile.
//
// Usage:
//
//	stapplan -size paper -machine paragon -nodes 118
//	stapplan -size small -machine host -nodes 10 -procs 2
//	stapplan -nodes 59 -objective latency -thrfloor 5
//	stapplan -size small -machine host -nodes 10 \
//	    -distnodes host1:7441,host2:7441 -secret s -emit plan.json
//	stapplan -observe http://localhost:7432/plan -nodes 10 -procs 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"pstap/internal/paragon"
	"pstap/internal/pipeline"
	"pstap/internal/plan"
	"pstap/internal/radar"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("stapplan", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		flagSize      = fs.String("size", "paper", "problem size: small | medium | paper")
		flagMachine   = fs.String("machine", "paragon", "cost profile seed: paragon (AFRL measurements) | host (coarse host scale)")
		flagNodes     = fs.Int("nodes", 118, "total node budget (>= 7, fully spent)")
		flagProcs     = fs.Int("procs", 0, "also split tasks into this many contiguous process ranges (0 disables; overridden by -distnodes)")
		flagObjective = fs.String("objective", "throughput", "bi-criteria direction: throughput | latency")
		flagLatBound  = fs.Duration("latbound", 0, "eq. 3 latency bound under -objective throughput (0 = unconstrained)")
		flagThrFloor  = fs.Float64("thrfloor", 0, "eq. 1 throughput floor (CPIs/s) under -objective latency (0 = unconstrained)")
		flagTop       = fs.Int("top", 5, "ranked candidates to print")
		flagEmit      = fs.String("emit", "", "write the best candidate as a signed plan file here (requires -secret)")
		flagSecret    = fs.String("secret", "", "cluster secret signing the emitted plan file")
		flagDist      = fs.String("distnodes", "", "comma-separated stapnode addresses recorded in the emitted plan (sets -procs)")
		flagObserve   = fs.String("observe", "", "calibrate the model from a running stapd's /plan URL before searching")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	p, err := radar.ParamsFor(*flagSize)
	if err != nil {
		fmt.Fprintln(errw, err)
		return 2
	}
	var m paragon.Machine
	switch *flagMachine {
	case "paragon":
		m = paragon.AFRLParagon()
	case "host":
		m = paragon.HostScale()
	default:
		fmt.Fprintf(errw, "unknown machine %q\n", *flagMachine)
		return 2
	}

	if *flagObserve != "" {
		if err := calibrateFrom(*flagObserve, &m, p); err != nil {
			fmt.Fprintln(errw, err)
			return 1
		}
		fmt.Fprintf(out, "calibrated from %s\n", *flagObserve)
	}

	var nodes []string
	procs := *flagProcs
	if *flagDist != "" {
		for _, a := range strings.Split(*flagDist, ",") {
			nodes = append(nodes, strings.TrimSpace(a))
		}
		procs = len(nodes)
	}
	obj := plan.MaxThroughput
	switch *flagObjective {
	case "throughput":
	case "latency":
		obj = plan.MinLatency
	default:
		fmt.Fprintf(errw, "unknown objective %q\n", *flagObjective)
		return 2
	}
	if *flagEmit != "" && *flagSecret == "" {
		fmt.Fprintln(errw, "-emit requires -secret")
		return 2
	}

	cands, err := plan.Optimize(plan.Request{
		Model:           paragon.NewModel(m, p),
		Nodes:           *flagNodes,
		Procs:           procs,
		Objective:       obj,
		LatencyBound:    flagLatBound.Seconds(),
		ThroughputFloor: *flagThrFloor,
		Top:             *flagTop,
	})
	if err != nil {
		fmt.Fprintln(errw, err)
		return 1
	}

	fmt.Fprintf(out, "objective %s, budget %d nodes, machine %s, size %s (%dx%dx%d)\n",
		obj, *flagNodes, *flagMachine, *flagSize, p.K, p.J, p.N)
	if *flagLatBound > 0 {
		fmt.Fprintf(out, "constraint: eq3 latency <= %v\n", *flagLatBound)
	}
	if *flagThrFloor > 0 {
		fmt.Fprintf(out, "constraint: throughput >= %.3f CPI/s\n", *flagThrFloor)
	}
	fmt.Fprintf(out, "%3s  %-24s %12s %10s %12s %12s  %-12s %s\n",
		"#", "assign", "period", "thr/s", "eq2 lat", "eq3 lat", "placement", "ok")
	for i, c := range cands {
		place := "-"
		if c.Placement != nil {
			place = c.Placement.String()
		}
		ok := "yes"
		if !c.Feasible {
			ok = "NO"
		}
		fmt.Fprintf(out, "%3d  %-24s %11.6fs %10.3f %11.6fs %11.6fs  %-12s %s\n",
			i+1, c.Assign, c.Period, c.Throughput, c.EqLatency, c.RealLatency, place, ok)
	}

	if *flagEmit != "" {
		f := plan.NewFile(cands[0], *flagSize, *flagMachine, nodes)
		if err := plan.WriteFile(*flagEmit, f, []byte(*flagSecret)); err != nil {
			fmt.Fprintln(errw, err)
			return 1
		}
		fmt.Fprintf(out, "plan written to %s (signed)\n", *flagEmit)
	}
	return 0
}

// calibrateFrom pulls a running stapd's /plan report and refits the
// machine from its observations. The report's own assignment is the one
// the observations were made under, so calibration uses it — the search
// budget stays whatever -nodes says.
func calibrateFrom(url string, m *paragon.Machine, p radar.Params) error {
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stapplan: %s: %s", url, resp.Status)
	}
	var rep plan.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return fmt.Errorf("stapplan: parse %s: %w", url, err)
	}
	o, ok := rep.Observations()
	if !ok {
		return fmt.Errorf("stapplan: %s has no complete observation window yet", url)
	}
	if len(rep.Assign) != pipeline.NumTasks {
		return fmt.Errorf("stapplan: %s reports %d task counts, want %d", url, len(rep.Assign), pipeline.NumTasks)
	}
	var a pipeline.Assignment
	copy(a[:], rep.Assign)
	if err := a.Validate(); err != nil {
		return err
	}
	*m = plan.Calibrate(*m, p, a, o, 1)
	return nil
}
