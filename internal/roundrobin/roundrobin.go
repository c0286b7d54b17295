// Package roundrobin implements the baseline the paper improves upon: the
// original RTMCARM flight-experiment configuration (Section 2), where
// compute nodes are used as independent resources and whole CPI data sets
// are dispatched to them round-robin. Each node runs the complete serial
// STAP chain on its CPIs.
//
// The baseline's characteristic tradeoff — throughput scales with the
// number of replicas, but latency is pinned at the single-node serial
// time ("the latency is limited by what can be achieved using one compute
// node") — is exactly what motivates the paper's parallel pipeline, and
// the comparison benchmarks in this repository quantify it on both the
// real host execution and the Paragon model.
package roundrobin

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"pstap/internal/paragon"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

// Config describes a round-robin run.
type Config struct {
	Scene    *radar.Scene
	Replicas int // independent serial processors (the paper used 25 nodes)
	NumCPIs  int
	// Warmup/Cooldown CPIs excluded from timing, as in the pipeline runs.
	Warmup, Cooldown int
}

// Result mirrors pipeline.Result where meaningful.
type Result struct {
	Detections [][]stap.Detection
	Throughput float64       // completed CPIs per second over the window
	Latency    time.Duration // dispatch-to-report, averaged over the window
	Elapsed    time.Duration
}

// Run dispatches CPIs round-robin to Replicas independent serial
// processors. Each replica maintains its own temporal weight state over
// the subsequence of CPIs it sees — exactly the flight configuration,
// where each node processed every 25th CPI and trained on its own
// history.
func Run(cfg Config) (*Result, error) {
	if cfg.Scene == nil {
		return nil, fmt.Errorf("roundrobin: nil scene")
	}
	if err := cfg.Scene.Validate(); err != nil {
		return nil, err
	}
	if cfg.Replicas <= 0 || cfg.NumCPIs <= 0 {
		return nil, fmt.Errorf("roundrobin: replicas %d, CPIs %d", cfg.Replicas, cfg.NumCPIs)
	}
	if cfg.Warmup+cfg.Cooldown >= cfg.NumCPIs {
		return nil, fmt.Errorf("roundrobin: warmup+cooldown >= CPIs")
	}
	n := cfg.NumCPIs
	detections := make([][]stap.Detection, n)
	latencies := make([]time.Duration, n)
	complete := make([]time.Time, n)

	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < cfg.Replicas; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			proc := stap.NewProcessor(cfg.Scene)
			for cpi := r; cpi < n; cpi += cfg.Replicas {
				t0 := time.Now()
				raw := cfg.Scene.GenerateCPI(cpi)
				res := proc.Process(raw)
				detections[cpi] = res.Detections
				complete[cpi] = time.Now()
				latencies[cpi] = complete[cpi].Sub(t0)
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)

	out := &Result{Detections: detections, Elapsed: elapsed}
	lo, hi := cfg.Warmup, n-cfg.Cooldown
	// Throughput: completion pacing over the measured window.
	times := append([]time.Time(nil), complete[lo:hi]...)
	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
	if len(times) >= 2 {
		if span := times[len(times)-1].Sub(times[0]); span > 0 {
			out.Throughput = float64(len(times)-1) / span.Seconds()
		}
	}
	var sum time.Duration
	for cpi := lo; cpi < hi; cpi++ {
		sum += latencies[cpi]
	}
	if hi > lo {
		out.Latency = sum / time.Duration(hi-lo)
	}
	return out, nil
}

// SimulateModel evaluates the baseline on the Paragon cost model: each
// node executes the whole chain serially, so the per-CPI service time is
// the sum of every task's single-node compute time (communication between
// steps is local memory traffic, modeled with the unpack coefficient on
// the inter-step volumes). Throughput = replicas / serviceTime; latency =
// serviceTime regardless of replica count — the baseline's fundamental
// limit.
func SimulateModel(mo *paragon.Model, replicas int) (throughput, latency float64) {
	if replicas <= 0 {
		panic("roundrobin: replicas must be positive")
	}
	var service float64
	for t := 0; t < pipeline.NumTasks; t++ {
		service += mo.CompTime(t, 1)
	}
	for _, e := range paragon.Edges() {
		service += float64(mo.Volume(e)) * mo.M.UnpackSecPB
	}
	return float64(replicas) / service, service
}
