package pipeline

import (
	"pstap/internal/mp"
	"pstap/internal/obs"
	"pstap/internal/stap"
)

// Observability integration: when a stream carries an obs.Collector, every
// worker journals its Figure-10 span there as it completes and the mp
// world reports each message through the collector's OnSend hook — the
// always-on telemetry feed behind the live eq. (1)–(3) gauges, the
// Prometheus exposition and the Perfetto trace export.

// DefaultObsConfig returns the obs configuration describing this
// assignment's seven tasks, with the paper's eq. (2) latency path
// T0 + max(T3, T4) + T5 + T6 (the weight tasks are off the latency path
// thanks to the temporal decoupling TD(1,3)/TD(2,4)).
func DefaultObsConfig(a Assignment) obs.Config {
	tasks := make([]obs.TaskMeta, NumTasks)
	for i := range tasks {
		tasks[i] = obs.TaskMeta{Name: stap.TaskNames[i], Workers: a[i]}
	}
	return obs.Config{
		Tasks: tasks,
		LatencyPath: [][]int{
			{TaskDoppler},
			{TaskEasyBF, TaskHardBF},
			{TaskPulseComp},
			{TaskCFAR},
		},
	}
}

// installWaitObserver routes the mp runtime's queue-wait reports into
// the collector, splitting each worker's receive phase into blocked wait
// vs deserialize/copy. Ranks hosting no task (the driver) and the
// stream-internal collector loop report nowhere.
func installWaitObserver(world *mp.World, topo *topology, col *obs.Collector) {
	world.SetWaitObserver(func(rank int, ns int64) {
		if task, w := topo.locate(rank); task >= 0 {
			col.OnWait(task, w, ns)
		}
	})
}

// RankTasks maps every world rank of an assignment to its task index,
// with -1 for the driver rank (the last rank, which hosts no pipeline
// task) — the rank→task view the attribution engine uses to pin wire
// events to latency-path stages.
func RankTasks(a Assignment) []int {
	out := make([]int, a.Total()+1)
	r := 0
	for t := 0; t < NumTasks; t++ {
		for w := 0; w < a[t]; w++ {
			out[r] = t
			r++
		}
	}
	out[r] = -1 // driver
	return out
}

// AttrConfig returns the attribution-engine configuration for an
// assignment: the task grid, the paper's latency path, and the rank map.
func AttrConfig(a Assignment) obs.AttributeConfig {
	cfg := DefaultObsConfig(a)
	return obs.AttributeConfig{
		Tasks:       cfg.Tasks,
		LatencyPath: cfg.LatencyPath,
		RankTask:    RankTasks(a),
	}
}

// TaskMeta describes the run's task/worker grid for the obs exporters.
func (r *Result) TaskMeta() []obs.TaskMeta { return r.tasks }

// Events returns the run's span journal, offsets relative to Start — the
// input of the event-based exporters (obs.WriteChromeTrace, trace.Gantt).
func (r *Result) Events() []obs.SpanEvent { return r.Spans }
