package serve

import (
	"io"
	"net/http"
	"strconv"

	"pstap/internal/dist"
	"pstap/internal/obs"
)

// The daemon's metric table and live trace export. Every metric stapd
// has is one obs.Family row of families(); /metrics.prom and the history
// store behind /history.json and the SLO engine are two renderings of
// that one table, and the replicas' span journals merge into one
// Perfetto-loadable trace.

// families builds the server's metric table from one read of each
// source: the Metrics snapshot for the stapd_* serving rows, then per
// replica slot its link plane, its collector's stap_* counters and live
// eq. (1)-(3) gauges (none while the slot has never been live), its
// stap_attr_* attribution report and — for a distributed slot — the
// federated node rows; then the SLO rows and the process runtime.
func (s *Server) families() []obs.Family {
	const g, c = "gauge", "counter"
	snap := s.metrics.Snapshot()
	quantile := func(q, series string, ms float64) obs.Family {
		return obs.Sample("stapd_job_latency_seconds", g, "End-to-end job latency quantiles over the sliding window.",
			series, []obs.Label{{Name: "quantile", Value: q}}, ms/1e3)
	}
	fams := []obs.Family{
		obs.Sample("stapd_uptime_seconds", g, "Server uptime.", "", nil, snap.UptimeSec),
		obs.Sample("stapd_jobs_accepted_total", c, "Jobs admitted to the queue.", "serve/jobs_accepted_total", nil, float64(snap.Accepted)),
		obs.Sample("stapd_jobs_rejected_total", c, "Jobs rejected with busy backpressure.", "serve/jobs_rejected_total", nil, float64(snap.Rejected)),
		obs.Sample("stapd_jobs_completed_total", c, "Jobs completed successfully.", "serve/jobs_completed_total", nil, float64(snap.Completed)),
		obs.Sample("stapd_jobs_failed_total", c, "Jobs that failed in processing.", "serve/jobs_failed_total", nil, float64(snap.Failed)),
		obs.Sample("stapd_cpis_processed_total", c, "CPIs processed across all completed jobs.", "serve/cpis_processed_total", nil, float64(snap.CPIsProcessed)),
		obs.Sample("stapd_worker_faults_total", c, "Supervised worker goroutine deaths across all replicas.", "serve/worker_faults_total", nil, float64(snap.WorkerFaults)),
		obs.Sample("stapd_replica_restarts_total", c, "Replica build attempts charged against restart budgets (a slot's first attempt is free).", "serve/replica_restarts_total", nil, float64(snap.ReplicaRestarts)),
		obs.Sample("stapd_replans_total", c, "Planned placement rolls by the replanner, counted when the roll takes the slot out of live.", "serve/replans_total", nil, float64(snap.Replans)),
		obs.Sample("stapd_job_failovers_total", c, "Jobs re-dispatched onto another replica after theirs died mid-flight.", "serve/job_failovers_total", nil, float64(snap.Failovers)),
		obs.Sample("stapd_deadline_exceeded_total", c, "Jobs rejected or aborted because their client deadline expired.", "serve/deadline_exceeded_total", nil, float64(snap.DeadlineExc)),
		obs.Sample("stapd_live_replicas", g, "Replicas currently healthy and serving.", "serve/live_replicas", nil, float64(snap.LiveReplicas)),
		obs.Sample("stapd_queue_depth", g, "Jobs waiting in the admission queue.", "serve/queue_depth", nil, float64(snap.QueueDepth)),
		obs.Sample("stapd_request_slots", g, "Request slots, the most requests the server holds at once: queue depth plus replicas.", "serve/request_slots", nil, float64(s.reqs.limit)),
		obs.Sample("stapd_request_slots_in_use", g, "Request slots held by a request being decoded, a queued or running job, or a job awaiting failover.", "serve/request_slots_in_use", nil, float64(s.reqs.inUse())),
		obs.Sample("stapd_jobs_per_sec", g, "Completed jobs per second of server uptime.", "serve/jobs_per_sec", nil, snap.JobsPerSec),
		quantile("0.5", "serve/latency_p50_seconds", snap.LatencyP50Ms),
		quantile("0.95", "serve/latency_p95_seconds", snap.LatencyP95Ms),
		quantile("0.99", "serve/latency_p99_seconds", snap.LatencyP99Ms),
	}
	for i, slot := range s.slots {
		l := []obs.Label{{Name: "replica", Value: strconv.Itoa(i)}}
		r, col := snap.Replicas[i], snap.Replicas[i].state.col
		fams = append(fams,
			obs.Sample("stapd_replica_jobs_total", c, "Jobs processed per replica.", "r{replica}/jobs_total", l, float64(r.Jobs)),
			obs.Sample("stapd_replica_utilization", g, "Fraction of server lifetime each replica spent processing.", "r{replica}/utilization", l, r.Utilization),
			obs.Sample("stapd_replica_up", g, "Replica health (1 live, 0 restarting or dead).", "r{replica}/up", l, b2f(r.state.phase == phaseLive)),
			obs.Sample("stapd_replica_restarts", c, "Charged build attempts per replica slot.", "r{replica}/restarts", l, float64(r.Restarts)),
			obs.Sample("stapd_breaker_state", g, "Dispatch circuit-breaker state per replica slot (0 closed, 1 open, 2 half-open).", "r{replica}/breaker_state", l, float64(r.state.breaker)),
		)
		for to, n := range r.moves {
			fams = append(fams, obs.Sample("stapd_slot_transitions_total", c, "Moves of each replica slot's state record, by destination (a phase, a breaker state or the in-process fallback).", "",
				[]obs.Label{l[0], {Name: "to", Value: moveNames[to]}}, float64(n)))
		}
		// One sample per coordinator↔node link (heads only for an
		// in-process slot).
		fams = append(fams, dist.LinkFamilies("stapd_link_", "r{replica}/link/m{member}/", l, r.Links)...)
		if slot.cluster != nil && s.fed != nil {
			fams = append(fams, s.clusterFamilies(slot, l)...)
		}
		if col != nil {
			fams = append(fams, obs.CollectorFamilies(l, col)...)
			fams = append(fams, obs.GaugeFamilies("stap_", "r{replica}/", nil, l, col.Gauges())...)
		}
		fams = append(fams, obs.AttrFamilies("r{replica}/attr/", l, func() *obs.BottleneckReport { return s.slotBottlenecks(slot) })...)
	}
	fams = append(fams, sloFamilies(s.Alerts())...)
	return append(append(fams, obs.RuntimeFamilies()...), s.sampler.alloc.family())
}

// b2f renders a condition as a 0/1 gauge value.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// WritePrometheus writes the server's metric table as Prometheus
// exposition text.
func (s *Server) WritePrometheus(w io.Writer) { obs.WriteFamilies(w, s.families()) }

// PromHandler serves WritePrometheus — mount as /metrics.prom next to the
// JSON Metrics().Handler().
func (s *Server) PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WritePrometheus(w)
	})
}

// WriteTrace writes the replicas' current span journals as one
// Perfetto-loadable Chrome trace. Each replica's tasks render under a
// "rN/" process-name prefix with disjoint pid ranges; a slot that has
// never been live has none.
func (s *Server) WriteTrace(w io.Writer) error {
	var ct obs.ChromeTrace
	for i, col := range s.Collectors() {
		if col != nil {
			ct.AddCollector(col, i*len(col.Tasks()), "r"+strconv.Itoa(i)+"/")
		}
	}
	return ct.Write(w)
}

// TraceHandler serves WriteTrace — mount as /trace.json to download a live
// snapshot of the pool's recent activity for Perfetto. The payload is
// gzip-encoded when the client accepts it.
func (s *Server) TraceHandler() http.Handler {
	return obs.GzipHandler(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="stapd.trace.json"`)
		_ = s.WriteTrace(w)
	}))
}
