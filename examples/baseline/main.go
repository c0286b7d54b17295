// Baseline: compare the paper's parallel pipeline against the original
// RTMCARM round-robin configuration (Section 2) — the system that flew in
// 1996, using compute nodes as independent resources. Both are run for
// real on the host, then compared at paper scale on the Paragon model.
//
//	go run ./examples/baseline
package main

import (
	"fmt"

	"pstap/internal/paperdata"
	"pstap/internal/paragon"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/roundrobin"
)

func main() {
	sc := radar.DefaultScene(radar.Small())
	const nCPIs, workers = 20, 10

	rr, err := roundrobin.Run(roundrobin.Config{
		Scene: sc, Replicas: workers, NumCPIs: nCPIs, Warmup: 4, Cooldown: 2,
	})
	if err != nil {
		panic(err)
	}
	pipe, err := pipeline.Run(pipeline.Config{
		Scene:   sc,
		Assign:  pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1), // 10 workers
		NumCPIs: nCPIs, Warmup: 4, Cooldown: 2,
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("host execution, %d workers each, %d CPIs:\n", workers, nCPIs)
	fmt.Printf("  round-robin: throughput %8.0f CPI/s   latency %v\n", rr.Throughput, rr.Latency)
	fmt.Printf("  pipeline:    throughput %8.0f CPI/s   latency %v\n", pipe.Throughput, pipe.Latency)
	fmt.Println("  (the pipeline's latency is per-CPI response time including queueing;")
	fmt.Println("   round-robin latency is one full serial chain)")

	// Both systems must agree with each other on what they detect.
	agree := 0
	for i := 0; i < nCPIs; i++ {
		if len(rr.Detections[i]) > 0 || len(pipe.Detections[i]) > 0 {
			agree++
		}
	}
	fmt.Printf("  CPIs with detections (either system): %d/%d\n\n", agree, nCPIs)

	mo := paragon.NewModel(paragon.AFRLParagon(), radar.Paper())
	fmt.Println("paper scale (Paragon model), equal node budgets:")
	fmt.Printf("%8s | %28s | %28s\n", "nodes", "round-robin (thr, lat)", "pipeline (thr, lat)")
	for _, a := range []pipeline.Assignment{paperdata.Case3, paperdata.Case2, paperdata.Case1} {
		rrThr, rrLat := roundrobin.SimulateModel(mo, a.Total())
		res := mo.Simulate(a)
		fmt.Printf("%8d | %10.2f CPI/s %8.2f s | %10.2f CPI/s %8.3f s\n",
			a.Total(), rrThr, rrLat, res.Throughput, res.RealLatency)
	}
	flight := paperdata.RTMCARM
	fmt.Printf("\n1996 flight demonstration (%d tri-processor nodes): %.0f CPI/s at %.2f s latency;\n",
		flight.Nodes, flight.Throughput, flight.Latency)
	fmt.Println("round-robin can match pipeline throughput by adding nodes, but its latency")
	fmt.Println("never improves — the paper's pipeline cuts it by more than an order of magnitude.")
}
