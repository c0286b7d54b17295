package obs

import (
	"sort"
	"time"
)

// PhaseMeans is one task's mean per-CPI phase times over a window of
// CPIs (see Measure).
type PhaseMeans struct {
	Name             string
	Recv, Comp, Send time.Duration
	// Samples is the number of worker-CPI spans averaged.
	Samples int
}

// Total returns the task's mean per-CPI execution time T_i.
func (p PhaseMeans) Total() time.Duration { return p.Recv + p.Comp + p.Send }

// GaugeSet is the derived view over a window of CPIs: the paper's eq. (1)
// throughput, eq. (2) latency bound and eq. (3) real latency. Measure
// computes it, for the live gauges over a sliding window and for a
// finished run over its measured CPIs alike.
type GaugeSet struct {
	// WindowCPIs is the number of distinct CPIs the window actually holds.
	WindowCPIs int
	// Tasks holds each task's mean phase times over the window.
	Tasks []PhaseMeans
	// Eq1Throughput is 1 / max_i T_i in CPIs/second (eq. 1).
	Eq1Throughput float64
	// Eq2Latency is the latency-path bound (eq. 2), zero without a
	// configured LatencyPath.
	Eq2Latency time.Duration
	// Eq3Latency is the measured first-task-ready to last-task-report
	// latency averaged over the window's complete CPIs (eq. 3 "real"
	// latency).
	Eq3Latency time.Duration
	// Eq3Samples is how many complete CPIs Eq3Latency averages.
	Eq3Samples int
	// RealThroughput is the measured completion-gap rate over the
	// window's complete CPIs, in CPIs/second.
	RealThroughput float64
	// Latencies holds each complete CPI's measured eq. 3 latency, in CPI
	// order.
	Latencies []time.Duration
}

// DefaultWindow is the gauge window in CPIs wherever none is configured:
// the collector's, and with it the live gauges', the bottleneck report's
// and the planner's.
const DefaultWindow = 32

// Gauges derives the live gauge set from the last Window CPIs present in
// the journal.
func (c *Collector) Gauges() GaugeSet {
	return ComputeGauges(c.cfg.Tasks, c.cfg.Window, c.cfg.LatencyPath, c.Journal())
}

// ComputeGauges derives a gauge set from an arbitrary event set — the
// shared core behind Collector.Gauges and the cluster-merged timeline
// (internal/serve), where journals from several processes are corrected
// onto one clock before the paper metrics are evaluated. It is Measure
// over the window LastCPIs picks.
func ComputeGauges(tasks []TaskMeta, window int, path [][]int, evs []SpanEvent) GaugeSet {
	return Measure(tasks, path, evs, LastCPIs(evs, tasks, window))
}

// LastCPIs is the one rule for which CPIs a window holds: the highest n
// distinct CPI indices among the events of known tasks (0 <= Task <
// len(tasks)), ascending. n <= 0 means DefaultWindow.
func LastCPIs(evs []SpanEvent, tasks []TaskMeta, n int) []int {
	if n <= 0 {
		n = DefaultWindow
	}
	seen := make(map[int]struct{})
	for _, ev := range evs {
		if ev.Task >= 0 && ev.Task < len(tasks) {
			seen[ev.CPI] = struct{}{}
		}
	}
	cpis := make([]int, 0, len(seen))
	for cpi := range seen {
		cpis = append(cpis, cpi)
	}
	sort.Ints(cpis)
	if len(cpis) > n {
		cpis = cpis[len(cpis)-n:]
	}
	return cpis
}

// Measure is the one reader of a span journal: it reduces the spans of the
// given CPIs (ascending, as from LastCPIs) to each task's mean phase times
// and the paper's eq. (1), eq. (2) and eq. (3) — the live gauges, a
// finished run's Result and the planner's observations are all this
// function over different CPI sets. Events whose task index falls outside
// tasks are ignored, so journals from a mismatched configuration cannot
// panic the exporter.
//
// path is the latency path of eq. (2) (see Config.LatencyPath); its first
// and last stages, or the first and last tasks when it is empty, are the
// first and final tasks of eq. (3). Eq. (3), the real throughput and
// Latencies count only complete CPIs: every first-task and final-task
// worker's span journaled (a partially in-flight CPI would bias the
// ready/done extremes). A CPI is ready when its first first-task worker
// enters its loop and done when its last final-task worker has sent its
// output.
func Measure(tasks []TaskMeta, path [][]int, evs []SpanEvent, cpis []int) GaugeSet {
	g := GaugeSet{WindowCPIs: len(cpis), Tasks: make([]PhaseMeans, len(tasks))}
	for t, tm := range tasks {
		g.Tasks[t].Name = tm.Name
	}
	at := make(map[int]int, len(cpis)) // CPI index → position in cpis
	for i, cpi := range cpis {
		at[cpi] = i
	}

	// Per-task phase sums, and per-CPI ready/done extremes for eq. 3.
	type ends struct {
		ready, done   int64
		readyN, doneN int
	}
	recv, comp, send := make([]int64, len(tasks)), make([]int64, len(tasks)), make([]int64, len(tasks))
	firstTasks, finalTasks := pathEnds(tasks, path)
	perCPI := make([]ends, len(cpis))
	for _, ev := range evs {
		if ev.Task < 0 || ev.Task >= len(tasks) {
			continue
		}
		i, ok := at[ev.CPI]
		if !ok {
			continue
		}
		recv[ev.Task] += ev.T1 - ev.T0
		comp[ev.Task] += ev.T2 - ev.T1
		send[ev.Task] += ev.T3 - ev.T2
		g.Tasks[ev.Task].Samples++
		e := &perCPI[i]
		if inSet(firstTasks, ev.Task) {
			if e.readyN == 0 || ev.T0 < e.ready {
				e.ready = ev.T0
			}
			e.readyN++
		}
		if inSet(finalTasks, ev.Task) {
			if e.doneN == 0 || ev.T3 > e.done {
				e.done = ev.T3
			}
			e.doneN++
		}
	}
	for t := range g.Tasks {
		if n := g.Tasks[t].Samples; n > 0 {
			g.Tasks[t].Recv = time.Duration(recv[t] / int64(n))
			g.Tasks[t].Comp = time.Duration(comp[t] / int64(n))
			g.Tasks[t].Send = time.Duration(send[t] / int64(n))
		}
	}

	// Eq. 1: 1 / max_i T_i over tasks with samples.
	var maxT time.Duration
	for _, pm := range g.Tasks {
		if pm.Samples > 0 && pm.Total() > maxT {
			maxT = pm.Total()
		}
	}
	if maxT > 0 {
		g.Eq1Throughput = 1 / maxT.Seconds()
	}

	// Eq. 2: sum over the path of each stage's slowest alternative.
	for _, stage := range path {
		var stageT time.Duration
		for _, t := range stage {
			if t < 0 || t >= len(g.Tasks) {
				continue
			}
			if g.Tasks[t].Samples > 0 && g.Tasks[t].Total() > stageT {
				stageT = g.Tasks[t].Total()
			}
		}
		g.Eq2Latency += stageT
	}

	// Eq. 3 and the real throughput, over the complete CPIs.
	wantReady, wantDone := workerSum(tasks, firstTasks), workerSum(tasks, finalTasks)
	if wantReady == 0 || wantDone == 0 {
		return g
	}
	var latSum, firstDone, lastDone int64
	for _, e := range perCPI {
		if e.readyN < wantReady || e.doneN < wantDone {
			continue
		}
		lat := e.done - e.ready
		g.Latencies = append(g.Latencies, time.Duration(lat))
		latSum += lat
		if len(g.Latencies) == 1 || e.done < firstDone {
			firstDone = e.done
		}
		if e.done > lastDone {
			lastDone = e.done
		}
	}
	if n := len(g.Latencies); n > 0 {
		g.Eq3Latency = time.Duration(latSum / int64(n))
		g.Eq3Samples = n
		if span := lastDone - firstDone; n >= 2 && span > 0 {
			g.RealThroughput = float64(n-1) / time.Duration(span).Seconds()
		}
	}
	return g
}

// pathEnds returns the task sets eq. 3 measures between: the first and
// last stages of the latency path, defaulting to the first and last
// configured tasks when no path is set.
func pathEnds(tasks []TaskMeta, path [][]int) (first, final []int) {
	if len(path) > 0 {
		return path[0], path[len(path)-1]
	}
	if n := len(tasks); n > 0 {
		return []int{0}, []int{n - 1}
	}
	return nil, nil
}

// workerSum counts the workers across a task set.
func workerSum(tasks []TaskMeta, set []int) int {
	n := 0
	for _, t := range set {
		if t >= 0 && t < len(tasks) {
			n += tasks[t].Workers
		}
	}
	return n
}

func inSet(set []int, v int) bool {
	for _, s := range set {
		if s == v {
			return true
		}
	}
	return false
}
