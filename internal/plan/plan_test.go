package plan

import (
	"math"
	"path/filepath"
	"testing"

	"pstap/internal/dist"
	"pstap/internal/paperdata"
	"pstap/internal/paragon"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
)

func paperModel() *paragon.Model { return paragon.NewModel(paragon.AFRLParagon(), radar.Paper()) }

// TestOptimizeReproducesPaperCases is the acceptance pin: at the paper's
// three node budgets against the AFRL Paragon profile, the search must
// find the hand-chosen case assignment or one with a strictly better
// predicted period, give hard weight the most nodes as the paper does
// (112 of 236), and scale throughput monotonically and near-linearly
// with the budget — the paper's scalability claim.
func TestOptimizeReproducesPaperCases(t *testing.T) {
	mo := paperModel()
	cases := []struct {
		budget int
		paper  pipeline.Assignment
	}{
		{236, paperdata.Case1},
		{118, paperdata.Case2},
		{59, paperdata.Case3},
	}
	for _, c := range cases {
		ranked, err := Optimize(Request{Model: mo, Nodes: c.budget, Procs: 2, Top: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(ranked) == 0 {
			t.Fatalf("budget %d: no candidates", c.budget)
		}
		best := ranked[0]
		if best.Assign.Total() != c.budget {
			t.Fatalf("budget %d: best spends %d nodes", c.budget, best.Assign.Total())
		}
		if err := best.Assign.Validate(); err != nil {
			t.Fatalf("budget %d: %v", c.budget, err)
		}
		paperRes := mo.Simulate(c.paper)
		if best.Period > paperRes.Period*(1+1e-12) {
			t.Errorf("budget %d: best period %.6f worse than paper's %.6f (assign %v vs %v)",
				c.budget, best.Period, paperRes.Period, best.Assign, c.paper)
		}
		if best.Placement == nil || best.Placement.Validate() != nil {
			t.Errorf("budget %d: bad placement %v", c.budget, best.Placement)
		}
		if !best.Feasible {
			t.Errorf("budget %d: unconstrained best not feasible", c.budget)
		}
		for task, n := range best.Assign {
			if n > best.Assign[pipeline.TaskHardWeight] {
				t.Errorf("budget %d: task %d got %d nodes > hard weight's %d (%v)",
					c.budget, task, n, best.Assign[pipeline.TaskHardWeight], best.Assign)
			}
		}
		// Candidates come back ranked: periods must be non-decreasing.
		for i := 1; i < len(ranked); i++ {
			if ranked[i].Period < ranked[i-1].Period-1e-15 {
				t.Errorf("budget %d: rank %d period %.6f beats rank %d's %.6f",
					c.budget, i, ranked[i].Period, i-1, ranked[i-1].Period)
			}
		}
	}

	thr := map[int]float64{}
	prev := 0.0
	for _, budget := range []int{7, 15, 30, 59, 118, 236} {
		ranked, err := Optimize(Request{Model: mo, Nodes: budget, Top: 1})
		if err != nil {
			t.Fatal(err)
		}
		thr[budget] = ranked[0].Throughput
		if thr[budget] < prev*0.999 {
			t.Errorf("budget %d throughput %.3f below a smaller budget's %.3f", budget, thr[budget], prev)
		}
		prev = thr[budget]
	}
	// 4.11 on the AFRL profile: the optimised 236-node pipeline keeps up
	// with ~4x the 59-node one.
	if ratio := thr[236] / thr[59]; ratio < 3.2 || ratio > 4.8 {
		t.Errorf("236/59-node throughput ratio %.2f, want ~4", ratio)
	}
}

func TestOptimizeRespectsLatencyBound(t *testing.T) {
	mo := paperModel()
	loose := mo.Simulate(paperdata.Case2).RealLatency * 1.05
	ranked, err := Optimize(Request{Model: mo, Nodes: 118, Objective: MaxThroughput, LatencyBound: loose})
	if err != nil {
		t.Fatal(err)
	}
	best := ranked[0]
	if !best.Feasible || best.RealLatency > loose+1e-12 {
		t.Errorf("loose bound %.4f: best latency %.4f feasible=%v", loose, best.RealLatency, best.Feasible)
	}
	// An impossible bound: the best candidate must be marked infeasible,
	// never silently violated.
	ranked, err = Optimize(Request{Model: mo, Nodes: 118, LatencyBound: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Feasible {
		t.Error("microsecond latency bound reported feasible at 118 nodes")
	}
}

func TestOptimizeMinLatencyWithFloor(t *testing.T) {
	mo := paperModel()
	ref := mo.Simulate(paperdata.Case2)
	floor := ref.Throughput * 0.95
	ranked, err := Optimize(Request{Model: mo, Nodes: 118, Objective: MinLatency, ThroughputFloor: floor})
	if err != nil {
		t.Fatal(err)
	}
	best := ranked[0]
	if !best.Feasible || best.Throughput < floor*(1-1e-12) {
		t.Errorf("floor %.3f: best throughput %.3f feasible=%v", floor, best.Throughput, best.Feasible)
	}
	if best.RealLatency > ref.RealLatency*(1+1e-12) {
		t.Errorf("min-latency best %.4f worse than the paper case's %.4f", best.RealLatency, ref.RealLatency)
	}

	// The weight tasks are off the latency path (eq. 3), so an unconstrained
	// latency search never gives them more nodes than the throughput one.
	weights := func(obj Objective) int {
		ranked, err := Optimize(Request{Model: mo, Nodes: 236, Objective: obj, Top: 1})
		if err != nil {
			t.Fatal(err)
		}
		a := ranked[0].Assign
		return a[pipeline.TaskEasyWeight] + a[pipeline.TaskHardWeight]
	}
	if lat, thr := weights(MinLatency), weights(MaxThroughput); lat > thr {
		t.Errorf("min-latency gave the weight tasks %d nodes, max-throughput %d", lat, thr)
	}
}

func TestOptimizeRejectsBadRequests(t *testing.T) {
	mo := paperModel()
	if _, err := Optimize(Request{Nodes: 59}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Optimize(Request{Model: mo, Nodes: pipeline.NumTasks - 1}); err == nil {
		t.Error("budget below one node per task accepted")
	}
	if _, err := Optimize(Request{Model: mo, Nodes: 59, Procs: pipeline.NumTasks + 1}); err == nil {
		t.Error("procs beyond task count accepted")
	}
}

func TestSplitPlacement(t *testing.T) {
	busy := [pipeline.NumTasks]float64{1, 1, 1, 1, 1, 1, 10}
	p, sums := SplitPlacement(busy, 2)
	if p.String() != "0-5/6" {
		t.Errorf("dominant last task: split %s, want 0-5/6", p)
	}
	if sums[0] != 6 || sums[1] != 10 {
		t.Errorf("sums %v", sums)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}

	p, _ = SplitPlacement(busy, 1)
	if p.String() != "0-6" {
		t.Errorf("single proc: %s", p)
	}
	p, _ = SplitPlacement(busy, pipeline.NumTasks)
	if len(p) != pipeline.NumTasks || p.Validate() != nil {
		t.Errorf("one task per proc: %s", p)
	}
	// Clamped, never panicking.
	if p, _ = SplitPlacement(busy, 0); p.Validate() != nil {
		t.Errorf("clamped procs: %s", p)
	}

	// Balanced weights split near-evenly: no process carries more than
	// the optimum for uniform unit weights (ceil(7/3) = 3).
	uniform := [pipeline.NumTasks]float64{1, 1, 1, 1, 1, 1, 1}
	_, sums = SplitPlacement(uniform, 3)
	for _, s := range sums {
		if s > 3 {
			t.Errorf("uniform split overloaded a process: %v", sums)
		}
	}
}

func TestFileSignVerifyRoundtrip(t *testing.T) {
	mo := paperModel()
	ranked, err := Optimize(Request{Model: mo, Nodes: 59, Procs: 2, Top: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFile(ranked[0], "paper", "paragon", []string{"a:1", "b:2"})
	secret := []byte("plan-secret")
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := WriteFile(path, f, secret); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Verify(secret) {
		t.Fatal("signed file does not verify")
	}
	if got.Verify([]byte("wrong")) {
		t.Fatal("file verifies under the wrong secret")
	}
	a, err := got.Assignment()
	if err != nil {
		t.Fatal(err)
	}
	if a != ranked[0].Assign {
		t.Errorf("assignment %v, want %v", a, ranked[0].Assign)
	}
	p, err := got.ParsedPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != ranked[0].Placement.String() {
		t.Errorf("placement %s, want %s", p, ranked[0].Placement)
	}
	// Tampering breaks the signature.
	got.Assign[0]++
	if got.Verify(secret) {
		t.Fatal("tampered file still verifies")
	}

	bad := &File{Assign: []int{1, 2, 3}}
	if _, err := bad.Assignment(); err == nil {
		t.Error("short assign accepted")
	}
}

func TestPredictedNumbersMatchModel(t *testing.T) {
	mo := paperModel()
	ranked, err := Optimize(Request{Model: mo, Nodes: 118, Top: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := ranked[0]
	res := mo.Simulate(c.Assign)
	for _, pair := range [][2]float64{
		{c.Period, res.Period},
		{c.Throughput, res.Throughput},
		{c.EqLatency, res.EqLatency},
		{c.RealLatency, res.RealLatency},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-12*math.Abs(pair[1]) {
			t.Errorf("candidate number %g != simulated %g", pair[0], pair[1])
		}
	}
}

func TestSplitPlacementUsesModelBusy(t *testing.T) {
	// The placement split must key on modeled busy time, not node counts:
	// with CFAR's overhead calibrated up, the best 2-way split isolates
	// CFAR even though its node count is small.
	m := paragon.HostScale()
	m.OverheadSec[pipeline.TaskCFAR] = 0.050
	mo := paragon.NewModel(m, radar.Small())
	a := pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1)
	p, _ := SplitPlacement(TaskBusy(mo, a), 2)
	if p.String() != "0-5/6" {
		t.Errorf("split %s, want CFAR isolated as 0-5/6", p)
	}
	_ = dist.Placement(p)
}
