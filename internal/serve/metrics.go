package serve

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pstap/internal/dist"
	"pstap/internal/obs"
)

// latencyWindow is how many recent end-to-end job latencies the metrics
// keep for percentile estimation (a sliding window, not a full history, so
// a long-lived daemon's memory stays bounded).
const latencyWindow = 4096

// Metrics is the server's observability surface: monotonic counters,
// gauges and a sliding latency window, all safe for concurrent use.
type Metrics struct {
	accepted  atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	cpis      atomic.Int64

	// workerFaults counts supervised worker deaths across all replicas;
	// replicaRestarts counts build attempts charged against restart
	// budgets (slotState.charged) — the two headline robustness counters.
	workerFaults    atomic.Int64
	replicaRestarts atomic.Int64
	// replans counts planned placement rolls by the replanner (these do
	// not charge restart budgets or count as replicaRestarts).
	replans atomic.Int64
	// failovers counts jobs re-dispatched onto another replica after
	// their replica died mid-flight; deadlineExceeded counts jobs
	// rejected or aborted because their client deadline expired.
	failovers        atomic.Int64
	deadlineExceeded atomic.Int64

	queueDepth func() int
	// slot resolves a replica slot's state record.
	slot  func(i int) slotState
	start time.Time

	mu     sync.Mutex
	lat    []time.Duration // ring buffer
	latPos int
	latN   int

	replicas []*ReplicaStats
}

// ReplicaStats tracks one pipeline replica's work and, per destination
// (moveNames), the moves of its slot's state record.
type ReplicaStats struct {
	jobs   atomic.Int64
	busyNs atomic.Int64
	moves  [len(moveNames)]atomic.Int64
}

// newMetrics builds the metrics for a replica pool of the given size.
func newMetrics(replicas int, queueDepth func() int, slot func(i int) slotState) *Metrics {
	m := &Metrics{
		queueDepth: queueDepth,
		slot:       slot,
		start:      time.Now(),
		lat:        make([]time.Duration, latencyWindow),
		replicas:   make([]*ReplicaStats, replicas),
	}
	for i := range m.replicas {
		m.replicas[i] = &ReplicaStats{}
	}
	return m
}

// observe records one completed job's end-to-end (enqueue-to-reply)
// latency.
func (m *Metrics) observe(d time.Duration) {
	m.mu.Lock()
	m.lat[m.latPos] = d
	m.latPos = (m.latPos + 1) % len(m.lat)
	if m.latN < len(m.lat) {
		m.latN++
	}
	m.mu.Unlock()
}

// ReplicaSnapshot is one replica's row in a Snapshot.
type ReplicaSnapshot struct {
	Jobs int64 `json:"jobs"`
	// Utilization is the fraction of the server's lifetime this replica
	// spent processing jobs (busy time / wall time).
	Utilization float64 `json:"utilization"`
	// Restarts counts the slot's charged build attempts (slotState.charged).
	Restarts int64 `json:"restarts"`
	// Health is "live", "restarting" or "dead".
	Health string `json:"health"`
	// Breaker is the slot's dispatch circuit-breaker state: "closed",
	// "open" or "half-open".
	Breaker string `json:"breaker"`
	// Fallback marks a distributed slot that exhausted its restart budget
	// and now rebuilds in-process (Config.FallbackInproc).
	Fallback bool `json:"fallback,omitempty"`
	// Links holds a distributed slot's per-node link counters (message
	// and byte totals each way plus the heartbeat round-trip EWMA);
	// empty for in-process replicas.
	Links []dist.LinkStats `json:"links,omitempty"`

	// state is the record behind Health and Breaker, for the numeric
	// stapd_replica_up / stapd_breaker_state rows; moves feeds
	// stapd_slot_transitions_total.
	state slotState
	moves [len(moveNames)]int64
}

// Snapshot is a point-in-time JSON-friendly view of the metrics — the
// payload of the /metrics endpoint.
type Snapshot struct {
	UptimeSec       float64           `json:"uptime_sec"`
	QueueDepth      int               `json:"queue_depth"`
	Accepted        int64             `json:"accepted"`
	Rejected        int64             `json:"rejected"`
	Completed       int64             `json:"completed"`
	Failed          int64             `json:"failed"`
	CPIsProcessed   int64             `json:"cpis_processed"`
	WorkerFaults    int64             `json:"worker_faults"`
	ReplicaRestarts int64             `json:"replica_restarts"`
	Replans         int64             `json:"replans_total"`
	Failovers       int64             `json:"job_failovers"`
	DeadlineExc     int64             `json:"deadline_exceeded"`
	LiveReplicas    int               `json:"live_replicas"`
	JobsPerSec      float64           `json:"jobs_per_sec"`
	LatencyP50Ms    float64           `json:"latency_p50_ms"`
	LatencyP95Ms    float64           `json:"latency_p95_ms"`
	LatencyP99Ms    float64           `json:"latency_p99_ms"`
	Replicas        []ReplicaSnapshot `json:"replicas"`
}

// Snapshot assembles the current view.
func (m *Metrics) Snapshot() Snapshot {
	up := time.Since(m.start)
	s := Snapshot{
		UptimeSec:       up.Seconds(),
		Accepted:        m.accepted.Load(),
		Rejected:        m.rejected.Load(),
		Completed:       m.completed.Load(),
		Failed:          m.failed.Load(),
		CPIsProcessed:   m.cpis.Load(),
		WorkerFaults:    m.workerFaults.Load(),
		ReplicaRestarts: m.replicaRestarts.Load(),
		Replans:         m.replans.Load(),
		Failovers:       m.failovers.Load(),
		DeadlineExc:     m.deadlineExceeded.Load(),
	}
	if m.queueDepth != nil {
		s.QueueDepth = m.queueDepth()
	}
	if up > 0 {
		s.JobsPerSec = float64(s.Completed) / up.Seconds()
	}
	window := m.sortedWindow()
	s.LatencyP50Ms = quantileMs(window, 0.50)
	s.LatencyP95Ms = quantileMs(window, 0.95)
	s.LatencyP99Ms = quantileMs(window, 0.99)
	for i, r := range m.replicas {
		st := m.slot(i)
		rs := ReplicaSnapshot{
			Jobs:     r.jobs.Load(),
			Restarts: int64(st.restarts),
			Health:   healthName(st.phase),
			Breaker:  breakerName(st.breaker),
			Fallback: st.fallback,
			Links:    st.linkStats(),
			state:    st,
		}
		for to := range r.moves {
			rs.moves[to] = r.moves[to].Load()
		}
		if up > 0 {
			rs.Utilization = float64(r.busyNs.Load()) / float64(up.Nanoseconds())
		}
		if st.phase == phaseLive {
			s.LiveReplicas++
		}
		s.Replicas = append(s.Replicas, rs)
	}
	return s
}

// latencyP50 returns the median end-to-end latency over the sliding
// window (zero with no history) — the admission queue-wait estimator's
// fallback when the pipeline gauges have no samples yet.
func (m *Metrics) latencyP50() time.Duration {
	return obs.Quantile(m.sortedWindow(), 0.50)
}

// sortedWindow copies the latency ring's filled part, ascending.
func (m *Metrics) sortedWindow() []time.Duration {
	m.mu.Lock()
	window := make([]time.Duration, m.latN)
	copy(window, m.lat[:m.latN])
	m.mu.Unlock()
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	return window
}

// quantileMs returns the q-quantile of a sorted window in milliseconds,
// with the shared nearest-rank convention of obs.Quantile (also behind
// pipeline.LatencyPercentile).
func quantileMs(sorted []time.Duration, q float64) float64 {
	return float64(obs.Quantile(sorted, q)) / float64(time.Millisecond)
}

// Handler returns an http.Handler serving the snapshot as JSON (an
// expvar-style endpoint, scraped by cmd/stapload -metrics).
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(m.Snapshot())
	})
}
