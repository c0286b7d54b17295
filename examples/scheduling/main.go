// Scheduling: explore the throughput/latency tradeoff of processor
// assignment (paper Section 4.1.2 and Tables 9/10) on the calibrated
// Paragon model, then let the optimizer pick assignments for a range of
// node budgets.
//
//	go run ./examples/scheduling
package main

import (
	"fmt"

	"pstap/internal/paperdata"
	"pstap/internal/paragon"
	"pstap/internal/pipeline"
	"pstap/internal/plan"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

func main() {
	mo := paragon.NewModel(paragon.AFRLParagon(), radar.Paper())

	fmt.Println("--- the paper's Table 9/10 experiment, replayed on the model ---")
	steps := []struct {
		name string
		a    pipeline.Assignment
	}{
		{"case 2 (118 nodes)", paperdata.Case2},
		{"+4 Doppler nodes (122)", paperdata.Table9},
		{"+16 PC/CFAR nodes (138)", paperdata.Tbl10},
	}
	base := mo.Simulate(paperdata.Case2)
	for _, s := range steps {
		r := mo.Simulate(s.a)
		fmt.Printf("%-26s throughput %6.3f CPI/s (%+5.1f%%)   latency %6.4f s (%+5.1f%%)\n",
			s.name, r.Throughput, 100*(r.Throughput/base.Throughput-1),
			r.RealLatency, 100*(r.RealLatency/base.RealLatency-1))
	}
	fmt.Println()
	fmt.Println("adding Doppler nodes speeds up *other* tasks' receives too;")
	fmt.Println("adding back-end nodes cannot raise throughput past the weight bottleneck,")
	fmt.Println("but still cuts latency (the back-end is on the reporting path).")
	fmt.Println()

	fmt.Println("--- optimizer: best assignments per node budget ---")
	fmt.Printf("%7s  %-28s %10s %10s\n", "budget", "assignment [D,eW,hW,eBF,hBF,PC,CF]", "thr CPI/s", "latency s")
	for _, budget := range []int{20, 59, 118, 236, 321} {
		for _, obj := range []plan.Objective{plan.MaxThroughput, plan.MinLatency} {
			c := best(plan.Request{Model: mo, Nodes: budget, Objective: obj})
			fmt.Printf("%7d  %-28v %10.3f %10.4f  (%v)\n",
				budget, c.Assign, c.Throughput, c.RealLatency, obj)
		}
	}
	fmt.Println()

	fmt.Println("--- min latency subject to keeping up with a 5 CPI/s input rate (236 nodes) ---")
	c := best(plan.Request{Model: mo, Nodes: 236, Objective: plan.MinLatency, ThroughputFloor: 5})
	fmt.Printf("%v -> throughput %.3f CPI/s, latency %.4f s (meets floor: %v)\n",
		c.Assign, c.Throughput, c.RealLatency, c.Feasible)
	fmt.Println()

	fmt.Println("--- where the nodes go (throughput objective, 236 nodes) ---")
	c = best(plan.Request{Model: mo, Nodes: 236})
	for t := 0; t < pipeline.NumTasks; t++ {
		fmt.Printf("%-16s %3d nodes   busy %.4f s\n", stap.TaskNames[t], c.Assign[t], mo.Busy(t, c.Assign))
	}
	fmt.Printf("pipeline period %.4f s -> %.3f CPI/s\n", c.Period, c.Throughput)
}

// best returns the planner's top candidate for a request.
func best(req plan.Request) plan.Candidate {
	req.Top = 1
	ranked, err := plan.Optimize(req)
	if err != nil {
		panic(err)
	}
	return ranked[0]
}
