// Package sched holds the paper's Section 4.1.2 scheduling claims as tests.
// There is no scheduler here: the one assignment optimiser is
// plan.Optimize, and these tests pin the claims on it under the names
// they have always had.
package sched

import (
	"testing"

	"pstap/internal/paperdata"
	"pstap/internal/paragon"
	"pstap/internal/pipeline"
	"pstap/internal/plan"
	"pstap/internal/radar"
)

func model() *paragon.Model {
	return paragon.NewModel(paragon.AFRLParagon(), radar.Paper())
}

// best is the top candidate plan.Optimize returns for req.
func best(t *testing.T, req plan.Request) plan.Candidate {
	t.Helper()
	req.Top = 1
	ranked, err := plan.Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	return ranked[0]
}

func TestOptimizeBeatsPaperCase1(t *testing.T) {
	mo := model()
	paperRes := mo.Simulate(paperdata.Case1)
	c := best(t, plan.Request{Model: mo, Nodes: 236, Objective: plan.MaxThroughput})
	if c.Assign.Total() != 236 {
		t.Fatalf("assignment uses %d of 236 nodes", c.Assign.Total())
	}
	if c.Throughput < paperRes.Throughput*0.999 {
		t.Errorf("optimizer throughput %.3f below paper assignment's %.3f",
			c.Throughput, paperRes.Throughput)
	}
	t.Logf("optimizer: %v -> %.3f CPI/s (paper case 1: %.3f)", c.Assign, c.Throughput, paperRes.Throughput)
}

func TestOptimizeMinLatency(t *testing.T) {
	mo := model()
	paperRes := mo.Simulate(paperdata.Case1)
	c := best(t, plan.Request{Model: mo, Nodes: 236, Objective: plan.MinLatency})
	if c.Assign.Total() != 236 {
		t.Fatalf("uses %d nodes", c.Assign.Total())
	}
	if c.RealLatency > paperRes.RealLatency {
		t.Errorf("min-latency %.4f worse than paper's throughput-oriented %.4f",
			c.RealLatency, paperRes.RealLatency)
	}
	// Latency objective should starve the weight tasks (they are off the
	// latency path) relative to the throughput objective.
	at := best(t, plan.Request{Model: mo, Nodes: 236, Objective: plan.MaxThroughput}).Assign
	wLat := c.Assign[pipeline.TaskEasyWeight] + c.Assign[pipeline.TaskHardWeight]
	wThr := at[pipeline.TaskEasyWeight] + at[pipeline.TaskHardWeight]
	if wLat > wThr {
		t.Errorf("latency objective gave weight tasks %d nodes, throughput gave %d", wLat, wThr)
	}
}

func TestOptimizeGivesHardWeightMostNodesForThroughput(t *testing.T) {
	// The paper assigns by far the most nodes to hard weight computation
	// (112 of 236); the optimizer must reproduce that structural choice.
	a := best(t, plan.Request{Model: model(), Nodes: 236, Objective: plan.MaxThroughput}).Assign
	for task := 0; task < pipeline.NumTasks; task++ {
		if task == pipeline.TaskHardWeight {
			continue
		}
		if a[task] > a[pipeline.TaskHardWeight] {
			t.Errorf("task %d got %d nodes > hard weight's %d", task, a[task], a[pipeline.TaskHardWeight])
		}
	}
}

func TestOptimizeMonotoneInBudget(t *testing.T) {
	mo := model()
	prev := 0.0
	for _, budget := range []int{7, 15, 30, 59, 118, 236} {
		c := best(t, plan.Request{Model: mo, Nodes: budget, Objective: plan.MaxThroughput})
		if c.Throughput < prev*0.999 {
			t.Errorf("budget %d throughput %.3f below smaller budget's %.3f", budget, c.Throughput, prev)
		}
		prev = c.Throughput
	}
}

func TestOptimizeNearLinearScaling(t *testing.T) {
	// The paper's core claim: optimized throughput scales ~linearly from
	// 59 to 236 nodes.
	mo := model()
	r59 := best(t, plan.Request{Model: mo, Nodes: 59, Objective: plan.MaxThroughput})
	r236 := best(t, plan.Request{Model: mo, Nodes: 236, Objective: plan.MaxThroughput})
	ratio := r236.Throughput / r59.Throughput
	if ratio < 3.2 || ratio > 4.8 {
		t.Errorf("236/59-node throughput ratio %.2f, want ~4", ratio)
	}
}

func TestOptimizeBudgetTooSmall(t *testing.T) {
	if _, err := plan.Optimize(plan.Request{Model: model(), Nodes: 3, Objective: plan.MaxThroughput}); err == nil {
		t.Error("budget below task count should fail")
	}
}

func TestOptimizeLatencyWithFloor(t *testing.T) {
	mo := model()
	c := best(t, plan.Request{Model: mo, Nodes: 236, Objective: plan.MinLatency, ThroughputFloor: 5.0})
	if c.Assign.Total() != 236 {
		t.Fatalf("uses %d nodes", c.Assign.Total())
	}
	if !c.Feasible || c.Throughput < 5.0 {
		t.Errorf("floor violated: %.3f (feasible %v)", c.Throughput, c.Feasible)
	}
	// With the floor it must do no worse on latency than the pure
	// throughput optimum.
	thr := best(t, plan.Request{Model: mo, Nodes: 236, Objective: plan.MaxThroughput})
	if c.RealLatency > thr.RealLatency+1e-12 {
		t.Errorf("floored latency %.4f worse than throughput-optimal %.4f",
			c.RealLatency, thr.RealLatency)
	}
	// An unreachable floor leaves the best candidate infeasible.
	if c := best(t, plan.Request{Model: mo, Nodes: 10, Objective: plan.MinLatency, ThroughputFloor: 100}); c.Feasible {
		t.Errorf("unreachable floor reported feasible: %v %.3f CPI/s", c.Assign, c.Throughput)
	}
}

func TestSweep(t *testing.T) {
	// stapbench -figure 11's sweep: at the paper's three budgets the
	// throughput-optimal assignment gains throughput and loses latency.
	mo := model()
	var prev plan.Candidate
	for i, budget := range []int{59, 118, 236} {
		c := best(t, plan.Request{Model: mo, Nodes: budget, Objective: plan.MaxThroughput})
		if i > 0 {
			if c.Throughput <= prev.Throughput {
				t.Error("sweep throughput not increasing")
			}
			if c.RealLatency >= prev.RealLatency {
				t.Error("sweep latency not decreasing")
			}
		}
		prev = c
	}
}
