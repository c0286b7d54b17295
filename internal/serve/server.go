package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pstap/internal/cube"
	"pstap/internal/dist"
	"pstap/internal/fault"
	"pstap/internal/obs"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/slo"
	"pstap/internal/stap"
	"pstap/internal/trace"
	"pstap/internal/wire"
)

// Config describes a stapd server.
type Config struct {
	// Scene supplies the processing parameters, beam geometry, chirp
	// replica and range-gain profile. Submitted cubes must match its
	// dimensions.
	Scene *radar.Scene
	// Assign is the per-task worker count of each pipeline replica.
	Assign pipeline.Assignment
	// Replicas is the number of warm in-process pipeline instances
	// (default 1 when DistClusters is empty). Throughput scales with the
	// replica count while per-job latency stays at one pipeline's latency
	// — the paper's replicated-pipelines extension as a serving knob.
	Replicas int
	// DistClusters adds one distributed replica slot per entry: a
	// pipeline whose workers run on remote stapnode agents (see
	// internal/dist), pooled beside the in-process replicas. Scene,
	// Assign, Window, Threads, CPITimeout and Logf are filled in from
	// this Config; the cluster config supplies nodes, placement and
	// secret. A lost cluster replica recycles through the same restart
	// budget and backoff as a faulted local one — Connect is the restart.
	DistClusters []dist.ClusterConfig
	// QueueDepth bounds the admission queue (default 2 per replica).
	// When the queue is full, jobs are rejected with StatusBusy and a
	// retry-after hint instead of buffering without bound.
	QueueDepth int
	// Window and Threads are passed through to each replica's pipeline.
	Window, Threads int
	// RetryAfter is the backoff hint in busy replies (default 100ms).
	RetryAfter time.Duration
	// TraceDir, when set, enables per-job trace capture: a job submitted
	// with Request.Trace is served by the pool like any other, and the
	// spans its replica journaled for it are written here as a
	// Perfetto-loadable Chrome trace (plus a Gantt text companion).
	TraceDir string
	// ObsWindow is each replica collector's gauge window in CPIs
	// (default obs.DefaultWindow): the live eq. (1)-(3) gauges on
	// /metrics.prom, /bottlenecks.json and /plan are computed over the
	// last ObsWindow CPIs.
	ObsWindow int
	// SlowMultiple, when > 0, logs any worker span slower than this
	// multiple of its task's recent median through Logf.
	SlowMultiple float64
	// CPITimeout, when positive, bounds each CPI's processing time on a
	// replica. A job that stalls past it is answered StatusTimeout and
	// the replica is reaped and recycled — the watchdog against hung
	// workers.
	CPITimeout time.Duration
	// FaultPlan, when non-nil, injects deterministic faults into every
	// replica (see internal/fault). Fire-once rules are shared across the
	// pool and across restarts, so a restarted replica does not re-die on
	// a spent rule. FaultSeed seeds the probabilistic rules.
	FaultPlan *fault.Plan
	FaultSeed int64
	// RestartBudget caps automatic restarts per replica slot (default 5).
	// A slot that exhausts it is marked dead; when every slot is dead the
	// server degrades to rejecting jobs.
	RestartBudget int
	// RestartBackoff is the delay before the first restart attempt of a
	// slot (default 50ms), doubling per consecutive restart.
	RestartBackoff time.Duration
	// FailoverBudget caps how many times one job may be re-dispatched
	// onto another live replica after the replica running it died
	// (default 2; negative disables failover). The job's input journal —
	// the cubes decoded into its request slot, which it keeps until its
	// final response — replays from CPI 0 to re-prime the adaptive-weight
	// lineage, and per-CPI results already delivered by the failed
	// attempt are kept, so the spliced output is bit-exact with an
	// unfailed run. Clients see StatusReplicaLost only when every attempt
	// inside the deadline is exhausted.
	FailoverBudget int
	// BreakerThreshold is the consecutive fatal-fault count that opens a
	// slot's dispatch circuit breaker (default 3). A slot with link-plane
	// flap evidence (heartbeat RTT above the heartbeat interval) trips
	// one fault earlier.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker keeps the slot out of
	// dispatch before a half-open probe job (default 1s).
	BreakerCooldown time.Duration
	// FallbackInproc, when set, backfills a distributed slot whose
	// restart budget is exhausted with a warm in-process replica instead
	// of marking it dead — capacity degrades to local compute rather
	// than disappearing. The degraded replica gets a fresh restart
	// budget; the slot stays in-process until the daemon restarts.
	FallbackInproc bool
	// FlightDir, when set, enables the flight recorder: every fatal
	// replica error (worker fault, watchdog timeout, lost cluster replica)
	// dumps the slot's span journal, slow-CPI log, link state and the last
	// federated node snapshots to a flightrec-*.json here before the slot
	// recycles. The oldest records beyond obs.DefaultFlightKeep are
	// pruned after every dump.
	FlightDir string
	// Replan enables the background replanner: every ReplanInterval the
	// server re-observes each distributed slot, re-calibrates the cost
	// model (seeded from paragon.HostScale), and — when the observed
	// steady-state period has drifted more than 25% away from the
	// model's prediction, or a latency or throughput SLO alert is firing,
	// and a re-split placement wins back enough of the predicted
	// bottleneck — rolls the slot onto the recommended placement through
	// the ordinary recycle machinery. The /plan endpoint reports without
	// acting even when this is off.
	Replan bool
	// ReplanInterval is the replanner's pass period (default 2s).
	ReplanInterval time.Duration
	// SLOs declares the server's service-level objectives, evaluated as
	// multi-window burn rates over the metric history (see internal/slo).
	// Firing alerts surface on /alerts.json and /metrics.prom; a breach
	// start dumps a flight record with the lead-up history embedded.
	SLOs []slo.Spec
	// HistoryInterval is the metric-history sampling period (default 1s;
	// tests tighten it). Every tick records the full gauge surface into
	// the bounded ring store behind /history.json (5 min of 1 s samples,
	// 1 h of 10 s, 24 h of 60 s) and evaluates the SLOs.
	HistoryInterval time.Duration
	// Logf, when non-nil, receives server log lines.
	Logf func(format string, args ...any)
}

// distHold, when non-nil as a server starts, keeps its distributed slots
// from taking a job until it is closed. Every slot pulls from one queue,
// so which takes the first job is otherwise up to the scheduler; a test
// that needs it on an in-process replica holds the others.
var distHold chan struct{}

// job is one admitted request flowing from a connection to a replica —
// possibly several replicas, when failover re-dispatches it.
type job struct {
	slot *requestSlot // held until the final response (see requestSlots)
	req  *Request     // &slot.req
	enq  time.Time
	done chan *Response // buffered; the replica's reply

	// deadline is the job's absolute expiry (zero when the request set no
	// DeadlineMs). It propagates into the pipeline abort machinery and,
	// for distributed slots, onto the link frames down to the stapnodes.
	deadline time.Time
	// attempts counts failover re-dispatches already consumed.
	attempts int
	// results is the job's delivered-CPI journal: results[i] is CPI i's
	// detection report the moment the pipeline collector emitted it. On
	// failover the non-nil prefix is the high-water mark of completed
	// CPIs; the replay on the next replica re-feeds the input journal
	// (req.CPIs) from CPI 0 to re-prime the adaptive-weight lineage but
	// only fills the entries the failed attempt never delivered, so the
	// spliced output is bit-exact with an unfailed run.
	results [][]stap.Detection
}

// Replica is what a pool slot serves jobs on: an in-process
// *pipeline.Stream or a *dist.Replica spanning remote stapnodes — the
// pool treats both identically.
type Replica interface {
	ProcessJobOpts(cpis []*cube.Cube, opts pipeline.JobOpts) ([][]stap.Detection, error)
	Faults() []pipeline.WorkerFault
	CPIsProcessed() int64
	Close()
	Abort()
}

// replicaSlot is one position in the replica pool. Its state record —
// which holds the replica and collector that are replaced when the slot
// is rebuilt — changes only in moveSlot (slot.go) and is read through
// the mutex; the slot identity — index and cluster binding — is stable.
type replicaSlot struct {
	idx int
	// cluster, when non-nil, makes this a distributed slot: recycling
	// re-Connects the cluster instead of building a local stream.
	cluster *dist.ClusterConfig

	mu    sync.Mutex
	state slotState

	// recycleMu serializes the slot's recycles: whoever holds it runs the
	// rebuild loop, and a second recycler waits for the outcome.
	recycleMu sync.Mutex
}

// record returns the slot's current state record.
func (sl *replicaSlot) record() slotState {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.state
}

// window is the CPI window every reader of the slot's journals uses (the
// gauges, /bottlenecks.json, /plan): its collector's, already clamped to
// what the ring holds; 0, the obs default, before it has one.
func (sl *replicaSlot) window() int {
	if col := sl.record().col; col != nil {
		return col.Window()
	}
	return 0
}

// linkStats returns the per-link transfer counters of a record whose
// replica is a live distributed one, nil otherwise.
func (st slotState) linkStats() []dist.LinkStats {
	if r, ok := st.rep.(*dist.Replica); ok {
		return r.LinkStats()
	}
	return nil
}

// Server is the stapd daemon core: listener, admission queue, replica
// pool and metrics. Create with New, start with Start or Serve, stop with
// Shutdown.
type Server struct {
	cfg     Config
	metrics *Metrics
	queue   chan *job
	slots   []*replicaSlot
	reqs    requestSlots

	// failover carries jobs whose replica died mid-processing back to the
	// pool for re-dispatch. Its capacity is the most jobs that can exist
	// in the system at once (queue depth + one in flight per slot), so a
	// failing replica's loop never blocks handing its job off.
	failover chan *job

	// live is the number of slots in the live phase; admission capacity
	// scales with it (graceful degradation).
	live atomic.Int32
	// draining is closed when shutdown begins, to wake a slot parked
	// behind an open breaker; stopping is closed on hard shutdown, to
	// interrupt restart backoffs.
	draining, stopping chan struct{}

	ln        net.Listener
	admitting atomic.Bool
	traceSeq  atomic.Uint64

	// fed federates node telemetry when the pool has distributed slots
	// (nil otherwise).
	fed *federation
	// planner holds the live cost-model calibration and, with
	// Config.Replan, the background replanning loop (see plan.go).
	planner *planner
	// sampler holds the metric-history store, its 1 s sampling loop and
	// the SLO burn-rate engine (see history.go).
	sampler *sampler

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	readerWG sync.WaitGroup // connection read loops
	writerWG sync.WaitGroup // connection write loops
	acceptWG sync.WaitGroup
	replWG   sync.WaitGroup

	shutdownOnce sync.Once
	shutdownErr  error
}

// New validates the configuration and builds the server with its replica
// pool warm. The listener is not started yet.
func New(cfg Config) (*Server, error) {
	if cfg.Scene == nil {
		return nil, fmt.Errorf("serve: nil scene")
	}
	if err := cfg.Scene.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Assign.Validate(); err != nil {
		return nil, err
	}
	if cfg.Replicas < 0 {
		cfg.Replicas = 0
	}
	if cfg.Replicas == 0 && len(cfg.DistClusters) == 0 {
		cfg.Replicas = 1
	}
	total := cfg.Replicas + len(cfg.DistClusters)
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * total
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 100 * time.Millisecond
	}
	if cfg.RestartBudget <= 0 {
		cfg.RestartBudget = 5
	}
	if cfg.RestartBackoff <= 0 {
		cfg.RestartBackoff = 50 * time.Millisecond
	}
	if cfg.FailoverBudget == 0 {
		cfg.FailoverBudget = 2
	}
	if cfg.FailoverBudget < 0 {
		cfg.FailoverBudget = 0
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	if cfg.ReplanInterval <= 0 {
		cfg.ReplanInterval = 2 * time.Second
	}
	if cfg.HistoryInterval <= 0 {
		cfg.HistoryInterval = time.Second
	}
	for _, sp := range cfg.SLOs {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *job, cfg.QueueDepth),
		reqs:     requestSlots{limit: cfg.QueueDepth + total},
		failover: make(chan *job, cfg.QueueDepth+total),
		draining: make(chan struct{}),
		stopping: make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
	s.metrics = newMetrics(total, func() int { return len(s.queue) }, func(i int) slotState { return s.slots[i].record() })
	for i := 0; i < total; i++ {
		slot := &replicaSlot{idx: i, state: slotState{budget: cfg.RestartBudget, dist: i >= cfg.Replicas}}
		if i >= cfg.Replicas {
			slot.cluster = &cfg.DistClusters[i-cfg.Replicas]
		}
		st, col, err := s.newSlotReplica(slot)
		if err != nil {
			for _, prev := range s.slots {
				prev.record().rep.Abort()
			}
			return nil, err
		}
		slot.state.rep, slot.state.col = st, col
		s.slots = append(s.slots, slot)
	}
	s.live.Store(int32(total))
	if len(cfg.DistClusters) > 0 {
		s.startFederation()
	}
	s.startPlanner()
	if err := s.startSampler(); err != nil {
		s.stopPlanner()
		s.stopFederation()
		for _, prev := range s.slots {
			prev.record().rep.Abort()
		}
		return nil, err
	}
	for i := 0; i < total; i++ {
		s.replWG.Add(1)
		go s.replicaLoop(s.slots[i])
	}
	s.admitting.Store(true)
	return s, nil
}

// newSlotReplica builds the slot's replica: a local warm pipeline for
// in-process slots (and for distributed slots fallen back in-process), a
// freshly Connected cluster session for distributed ones. Both paths
// return a new telemetry collector.
func (s *Server) newSlotReplica(slot *replicaSlot) (Replica, *obs.Collector, error) {
	if slot.cluster != nil && !slot.record().fallback {
		return s.newDistReplica(slot)
	}
	return s.newReplica()
}

// newCollector builds a replica's telemetry collector.
func (s *Server) newCollector() *obs.Collector {
	ocfg := pipeline.DefaultObsConfig(s.cfg.Assign)
	ocfg.Window = s.cfg.ObsWindow
	ocfg.SlowMultiple = s.cfg.SlowMultiple
	ocfg.SlowLogf = s.cfg.Logf
	return obs.New(ocfg)
}

// newDistReplica connects one distributed replica across the slot's
// cluster, filling the pipeline parameters in from the server config. The
// cluster config is copied under the slot lock because the replanner may
// be rewriting its placement concurrently.
func (s *Server) newDistReplica(slot *replicaSlot) (Replica, *obs.Collector, error) {
	col := s.newCollector()
	slot.mu.Lock()
	cc := *slot.cluster
	slot.mu.Unlock()
	cc.Scene = s.cfg.Scene
	cc.Assign = s.cfg.Assign
	cc.Window = s.cfg.Window
	cc.Threads = s.cfg.Threads
	cc.CPITimeout = s.cfg.CPITimeout
	cc.Obs = col
	cc.Logf = s.cfg.Logf
	rep, err := cc.Connect()
	if err != nil {
		return nil, nil, err
	}
	return rep, col, nil
}

// newReplica builds one warm pipeline instance with its telemetry
// collector and, when the server has a fault plan, a fresh injector
// sharing the plan's fire-once state.
func (s *Server) newReplica() (Replica, *obs.Collector, error) {
	col := s.newCollector()
	scfg := pipeline.StreamConfig{
		Scene:      s.cfg.Scene,
		Assign:     s.cfg.Assign,
		Window:     s.cfg.Window,
		Threads:    s.cfg.Threads,
		Obs:        col,
		CPITimeout: s.cfg.CPITimeout,
	}
	if s.cfg.FaultPlan != nil {
		scfg.Fault = s.cfg.FaultPlan.Injector(s.cfg.FaultSeed)
	}
	st, err := pipeline.NewStream(scfg)
	if err != nil {
		return nil, nil, err
	}
	return st, col, nil
}

// Metrics returns the server's observability surface (serve its Handler
// over HTTP for scraping).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Collectors returns the per-replica telemetry collectors, in replica
// order — the feed behind WritePrometheus and WriteTrace. A recycled
// replica contributes its fresh collector.
func (s *Server) Collectors() []*obs.Collector {
	out := make([]*obs.Collector, len(s.slots))
	for i, sl := range s.slots {
		out[i] = sl.record().col
	}
	return out
}

// Start listens on addr and serves connections in the background.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.Serve(ln)
	return nil
}

// Serve accepts connections from ln in the background.
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	s.acceptWG.Add(1)
	go func() {
		defer s.acceptWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed (shutdown)
			}
			s.connMu.Lock()
			s.conns[conn] = struct{}{}
			s.connMu.Unlock()
			s.readerWG.Add(1)
			go s.handleConn(conn)
		}
	}()
	s.cfg.Logf("stapd: listening on %v (%d replicas, %d distributed, queue %d)",
		ln.Addr(), s.cfg.Replicas, len(s.cfg.DistClusters), s.cfg.QueueDepth)
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// handleConn is one connection's read loop. A paired writer goroutine
// serializes the response frames, so replies from different replicas can
// complete out of order without interleaving on the wire. Replies are
// encoded into the connection's one write buffer. A request is read into
// a request slot taken at its header (see requestSlots), so an idle
// connection holds no request-sized memory, and a request the pool has
// no slot for is answered Busy without its body being kept. A body must
// arrive within its bodyDeadline: one that stalls releases its slot and
// its connection is closed, so stalled clients cannot hold every slot.
func (s *Server) handleConn(conn net.Conn) {
	defer s.readerWG.Done()
	replies := make(chan *Response, 16)
	var inflight sync.WaitGroup
	refused := false // set before replies closes, read after
	s.writerWG.Add(1)
	go func() {
		defer s.writerWG.Done()
		fw := wire.NewWriter(conn)
		broken := false
		for r := range replies {
			if broken {
				continue // keep draining so job forwarders never block
			}
			if _, err := fw.WriteFrame(wire.Plain, r); err != nil {
				broken = true
			}
		}
		if refused {
			wire.CloseAfterReply(conn) // the refused frame's body is unread
		} else {
			conn.Close()
		}
	}()
	fr := wire.NewReader(conn)
	for {
		s.setReadDeadline(conn, time.Time{}) // between requests a connection may idle
		k, n, err := fr.Next()
		var verr *wire.VersionError
		if errors.As(err, &verr) {
			// A client from another build: answer in this build's format,
			// which its reader refuses with both versions named.
			replies <- &Response{Status: StatusBadRequest, Err: err.Error()}
			refused = true
		}
		if err != nil || k != wire.Plain {
			break // clean EOF, shutdown deadline, or corrupt header
		}
		s.setReadDeadline(conn, time.Now().Add(bodyDeadline(n)))
		sl := s.reqs.take()
		if sl == nil {
			// At the admission bound: read past the body, keeping only
			// the ID (a Request's first field) the reply is matched by.
			var id [8]byte
			n, err := fr.Skip(id[:])
			if err != nil {
				break
			}
			s.metrics.rejected.Add(1)
			replies <- &Response{ID: wire.NewDec(id[:n]).Uint64(), Status: StatusBusy,
				RetryAfterMs: s.cfg.RetryAfter.Milliseconds(), Err: "serve: every request slot is held"}
			continue
		}
		if _, err := fr.Decode(&sl.req); err != nil {
			s.reqs.release(sl, true)
			break // truncated, stalled or corrupt body
		}
		if resp := s.admit(sl, replies, &inflight); resp != nil {
			s.reqs.release(sl, true)
			replies <- resp
		}
	}
	// Replies for jobs already admitted still flow; then the writer
	// closes the connection.
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
	inflight.Wait()
	close(replies)
}

// minBodyRate is the slowest a request body may arrive, in bytes per
// second.
const minBodyRate = 1 << 20

// bodyDeadline is how long a body of n bytes may take to arrive: a
// second, plus its length at minBodyRate.
func bodyDeadline(n int) time.Duration {
	return time.Second + time.Duration(n)*time.Second/minBodyRate
}

// setReadDeadline sets conn's read deadline to t (zero clears it), unless
// Shutdown has begun: then it sets it to now, as Shutdown does, so a
// reader between two reads cannot put back a deadline Shutdown already
// cut short. It holds connMu, under which Shutdown sets the deadlines
// after it stops admitting.
func (s *Server) setReadDeadline(conn net.Conn, t time.Time) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if !s.admitting.Load() {
		t = time.Now()
	}
	conn.SetReadDeadline(t)
}

// admit validates the request decoded into sl and tries to enqueue it.
// It returns an immediate response (rejection or validation error), and
// the caller releases sl, or nil when the job was queued with sl — in
// which case a forwarder goroutine relays the replica's reply to the
// connection writer. Admission capacity tracks the live
// replica count: a degraded pool accepts proportionally less, and a pool
// with nothing live rejects outright — with an honest retry-after hint
// when a restart is already scheduled.
func (s *Server) admit(sl *requestSlot, replies chan<- *Response, inflight *sync.WaitGroup) *Response {
	req := &sl.req
	if err := s.validate(req); err != nil {
		return &Response{ID: req.ID, Status: StatusBadRequest, Err: err.Error()}
	}
	if !s.admitting.Load() {
		return &Response{ID: req.ID, Status: StatusAborted, Err: "serve: shutting down"}
	}
	live := int(s.live.Load())
	if live == 0 {
		if eta, ok := s.restartETA(); ok {
			s.metrics.rejected.Add(1)
			return &Response{ID: req.ID, Status: StatusBusy, RetryAfterMs: eta.Milliseconds(),
				Err: "serve: no live replicas (restarting)"}
		}
		return &Response{ID: req.ID, Status: StatusError, Err: "serve: no live replicas"}
	}
	depth := s.cfg.QueueDepth * live / len(s.slots)
	if depth < 1 {
		depth = 1
	}
	j := &job{slot: sl, req: req, enq: time.Now(), done: make(chan *Response, 1)}
	if req.DeadlineMs > 0 {
		budget := time.Duration(req.DeadlineMs) * time.Millisecond
		if wait := s.queueWait(len(req.CPIs), live); wait > budget {
			// The job would expire in the queue; reject now instead of
			// admitting work that cannot meet its deadline.
			s.metrics.rejected.Add(1)
			s.metrics.deadlineExceeded.Add(1)
			return &Response{ID: req.ID, Status: StatusDeadlineExceeded,
				Err: fmt.Sprintf("serve: estimated queue wait %v exceeds deadline %v",
					wait.Round(time.Millisecond), budget)}
		}
		j.deadline = j.enq.Add(budget)
	}
	if len(s.queue) >= depth {
		s.metrics.rejected.Add(1)
		return &Response{ID: req.ID, Status: StatusBusy, RetryAfterMs: s.cfg.RetryAfter.Milliseconds()}
	}
	select {
	case s.queue <- j:
		s.metrics.accepted.Add(1)
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			replies <- <-j.done
		}()
		return nil
	default:
		// Backpressure: the queue filled between the depth check and the
		// send. Reject now with a retry hint rather than buffering
		// without bound.
		s.metrics.rejected.Add(1)
		return &Response{ID: req.ID, Status: StatusBusy, RetryAfterMs: s.cfg.RetryAfter.Milliseconds()}
	}
}

// queueWait estimates how long a newly admitted job would wait before a
// replica picks it up: the jobs already queued, spread over the live
// replicas, each costing roughly one job's service time. Per-job service
// is predicted from the pool's live eq. (1)/(3) gauges — the per-CPI
// pipeline latency for a job's first CPI plus the steady-state period
// for each CPI behind it — and falls back to the measured p50 end-to-end
// latency, then to zero (admit optimistically) when the pool has no
// history at all.
func (s *Server) queueWait(cpis, live int) time.Duration {
	waiting := len(s.queue)
	if waiting == 0 || live <= 0 {
		return 0
	}
	var svc float64
	n := 0
	for _, col := range s.Collectors() {
		if col == nil {
			continue
		}
		g := col.Gauges()
		if g.Eq3Samples == 0 || g.Eq1Throughput <= 0 {
			continue
		}
		svc += float64(g.Eq3Latency) + float64(cpis-1)*float64(time.Second)/g.Eq1Throughput
		n++
	}
	var per time.Duration
	if n > 0 {
		per = time.Duration(svc / float64(n))
	} else {
		per = s.metrics.latencyP50()
	}
	return per * time.Duration(waiting) / time.Duration(live)
}

// restartETA returns the soonest scheduled restart attempt among
// restarting slots, as a duration from now (clamped to at least the
// configured RetryAfter); ok is false when no slot is coming back.
func (s *Server) restartETA() (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, slot := range s.slots {
		st := slot.record()
		if st.phase != phaseRestarting {
			continue
		}
		eta := max(time.Until(st.nextAttempt), s.cfg.RetryAfter)
		if !found || eta < best {
			best, found = eta, true
		}
	}
	return best, found
}

// validate checks a job against the server's scene before admission.
func (s *Server) validate(req *Request) error {
	if len(req.CPIs) == 0 {
		return fmt.Errorf("serve: empty job")
	}
	if err := s.cfg.Scene.Params.CheckCPIs(req.CPIs); err != nil {
		return fmt.Errorf("serve: job %w", err)
	}
	return nil
}

// replicaLoop is one replica's job pump: it pulls from the failover
// channel (jobs orphaned by a dying replica, served first so they meet
// their deadlines) and the shared admission queue, and runs each job on
// the slot's warm pipeline instance. The slot's circuit breaker gates
// every pull: an open breaker parks the loop for the cooldown instead
// of feeding jobs to a flapping replica. A fatal processing error
// (worker fault, watchdog timeout) recycles the slot's pipeline under
// its restart budget. A slot that died for good leaves the queue to its
// siblings — one merely restarting serves it when it is back — unless
// the whole pool is dead: then the loop stays as a drainer, so admitted
// work is never silently dropped (jobs that raced past the admission
// check get their answer, jobs orphaned by the last death the
// ReplicaLost their exhausted failover earned).
func (s *Server) replicaLoop(slot *replicaSlot) {
	defer s.replWG.Done()
	if hold := distHold; slot.cluster != nil && hold != nil {
		select {
		case <-hold:
		case <-s.draining:
		}
	}
	for {
		st := slot.record()
		switch {
		case st.phase == phaseDead && !s.allDead():
			return
		case st.phase != phaseDead && st.breaker == breakerOpen:
			// Parked. Shutdown ends the park early: nothing admitted may
			// wait out a cooldown, so the probe is whatever is still
			// queued, and the pull below exits on the closed queue if
			// nothing is.
			select {
			case <-time.After(s.cfg.BreakerCooldown - time.Since(st.openedAt)):
			case <-s.draining:
			}
			s.moveSlot(slot, slotEvent{kind: evCooldownElapsed})
		}
		var j *job
		select {
		case j = <-s.failover:
		default:
			select {
			case j = <-s.failover:
			case qj, qok := <-s.queue:
				if !qok {
					return
				}
				j = qj
			}
		}
		if st.phase == phaseDead {
			s.failDead(j)
		} else {
			s.runJob(slot, j)
		}
	}
}

// allDead reports whether every slot has died for good. A slot marks
// itself dead before it looks, so of the slots dying last at least one
// sees the whole pool dead and becomes the drainer.
func (s *Server) allDead() bool {
	for _, slot := range s.slots {
		if slot.record().phase != phaseDead {
			return false
		}
	}
	return true
}

// runJob runs one job on the slot and answers or fails it over.
func (s *Server) runJob(slot *replicaSlot, j *job) {
	stats := s.metrics.replicas[slot.idx]
	if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
		// Expired while queued: answer without burning a replica on it.
		s.metrics.failed.Add(1)
		s.metrics.deadlineExceeded.Add(1)
		s.answer(j, &Response{ID: j.req.ID, Status: StatusDeadlineExceeded,
			Err: pipeline.ErrDeadlineExceeded.Error(), QueueNs: int64(time.Since(j.enq))}, true)
		return
	}
	svcStart := time.Now()
	dets, traceFile, gen, err := s.process(slot, j)
	svc := time.Since(svcStart)
	stats.jobs.Add(1)
	stats.busyNs.Add(int64(svc))
	resp := &Response{
		ID:        j.req.ID,
		QueueNs:   int64(svcStart.Sub(j.enq)),
		ServiceNs: int64(svc),
	}
	fatal := false
	var ev slotEvent
	if err != nil {
		var code Status
		code, fatal = s.classify(err)
		// A fatal error is a fault of the incarnation the job ran on —
		// except the job's own deadline aborting the stream under it: the
		// client's bound, not the replica's doing, so a planned event.
		ev = slotEvent{kind: evFault, gen: gen, cause: err}
		if code == StatusDeadlineExceeded {
			ev.kind = evPlanned
		} else if fatal {
			ev.flaky = s.slotFlaky(slot)
		}
		if fatal && s.failoverEligible(j, code) {
			// Hand the job back to the pool before recycling: another
			// live replica replays it from its input journal and the
			// client never sees this replica's death.
			j.attempts++
			s.metrics.failovers.Add(1)
			s.cfg.Logf("stapd: replica %d lost job %d mid-flight (%v); failover attempt %d/%d",
				slot.idx, j.req.ID, err, j.attempts, s.cfg.FailoverBudget)
			s.failover <- j
			ev.handedOff = true
			s.recycle(slot, ev)
			return
		}
		s.metrics.failed.Add(1)
		if code == StatusDeadlineExceeded {
			s.metrics.deadlineExceeded.Add(1)
		}
		resp.Status = code
		resp.Err = err.Error()
	} else {
		s.moveSlot(slot, slotEvent{kind: evJobOK})
		s.metrics.completed.Add(1)
		s.metrics.cpis.Add(int64(len(j.req.CPIs)))
		resp.Status = StatusOK
		if j.attempts > 0 && j.results != nil {
			// Failover splice: keep the first attempt's delivered prefix,
			// take the replay's remainder (identical either way — the
			// processing is deterministic — but the journal is the record).
			dets = j.results
		}
		resp.Detections = dets
		resp.TraceFile = traceFile
	}
	s.metrics.observe(time.Since(j.enq))
	if !fatal {
		s.answer(j, resp, err == nil)
		return
	}
	// The fault moves the slot out of live before the client hears of it,
	// so the client's next request is refused busy rather than admitted
	// while the slot is torn down.
	st, eff := s.moveSlot(slot, ev)
	s.answer(j, resp, false)
	s.rebuild(slot, st, eff)
}

// failoverEligible reports whether a fatally-failed job should be
// re-dispatched instead of answered: the failure must be the replica's
// (lost or hung — not the job's own deadline), the job must have budget
// and deadline headroom left, another replica must be live to take it
// (the caller's slot still counts itself, hence >= 2 — a job handed off
// with nobody else to run it would wait out the whole recycle instead
// of failing fast).
func (s *Server) failoverEligible(j *job, code Status) bool {
	if code != StatusReplicaLost && code != StatusTimeout {
		return false
	}
	if j.attempts >= s.cfg.FailoverBudget {
		return false
	}
	if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
		return false
	}
	if s.live.Load() < 2 {
		return false
	}
	return true
}

// slotFlaky reports link-plane evidence that a distributed slot's
// trouble is environmental: a heartbeat round-trip EWMA above the
// heartbeat interval means probes barely beat the miss detector — the
// flap signature that opens the slot's breaker one fault early.
func (s *Server) slotFlaky(slot *replicaSlot) bool {
	if slot.cluster == nil {
		return false
	}
	hb := slot.cluster.Heartbeat
	if hb <= 0 {
		hb = dist.DefaultHeartbeat
	}
	for _, l := range slot.record().linkStats() {
		if l.RTTNs > int64(hb) {
			return true
		}
	}
	return false
}

// classify maps a processing error to its wire status and whether the
// replica that produced it is unusable and must be recycled.
func (s *Server) classify(err error) (Status, bool) {
	var fe *pipeline.FaultError
	var rle *dist.ReplicaLostError
	switch {
	case errors.Is(err, pipeline.ErrDeadlineExceeded):
		// The job's own deadline aborted the stream mid-CPI; the replica
		// is unwound and must be recycled (runJob makes it a planned event).
		return StatusDeadlineExceeded, true
	case errors.Is(err, pipeline.ErrCPITimeout):
		return StatusTimeout, true
	case errors.As(err, &fe):
		return StatusReplicaLost, true
	case errors.As(err, &rle):
		// A distributed replica lost a node or link; the session is gone
		// and recycling re-Connects the cluster.
		return StatusReplicaLost, true
	case errors.Is(err, pipeline.ErrStreamClosed):
		if !s.admitting.Load() {
			// Shutdown tore the stream down under the job; the pool's
			// teardown is already in progress, nothing to recycle.
			return StatusAborted, false
		}
		return StatusReplicaLost, true
	case errors.Is(err, context.Canceled):
		return StatusAborted, false
	default:
		return StatusError, false
	}
}

// recycle applies a fault or planned event observed on the slot and
// rebuilds the slot if that moved it to restarting (rebuild).
func (s *Server) recycle(slot *replicaSlot, ev slotEvent) bool {
	st, eff := s.moveSlot(slot, ev)
	return s.rebuild(slot, st, eff)
}

// rebuild finishes a recycle whose event moveSlot has applied, giving st
// and eff: it discards the old instance and rebuilds — one attempt per
// backoff the record schedules, until the record says live or dead
// (restart budget and in-process fallback are its rules, see next). An
// event the record refused (a stale generation: a roll raced a job
// failure, or two failures raced each other) only waits out the recycle
// that got there first, so a replica loop does not pull a job while
// another recycler rebuilds its slot. It reports whether the slot is
// live.
func (s *Server) rebuild(slot *replicaSlot, st slotState, eff slotEffects) bool {
	slot.recycleMu.Lock()
	defer slot.recycleMu.Unlock()
	for !eff.applied {
		// The recycler that moved the slot to restarting holds recycleMu
		// until the slot leaves it, once it has taken it.
		if st = slot.record(); st.phase != phaseRestarting {
			return st.phase == phaseLive
		}
		slot.recycleMu.Unlock()
		runtime.Gosched()
		slot.recycleMu.Lock()
	}
	st.rep.Abort()
	for _, f := range st.rep.Faults() {
		s.metrics.workerFaults.Add(1)
		s.cfg.Logf("stapd: replica %d worker fault: %s", slot.idx, f)
	}
	for st.phase == phaseRestarting {
		select {
		case <-time.After(eff.wait):
		case <-s.stopping:
			st, eff = s.moveSlot(slot, slotEvent{kind: evStopping})
			continue
		}
		rep, col, err := s.newSlotReplica(slot)
		if err != nil {
			s.cfg.Logf("stapd: replica %d rebuild failed: %v", slot.idx, err)
			st, eff = s.moveSlot(slot, slotEvent{kind: evRebuildFailed})
			continue
		}
		st, eff = s.moveSlot(slot, slotEvent{kind: evRebuilt, rep: rep, col: col})
	}
	return st.phase == phaseLive
}

// flightRecord dumps a fatally-failed slot's final telemetry — the span
// journal, slow-CPI log and, for distributed slots, link state and the
// last federated node snapshots — to FlightDir. No-op without one.
func (s *Server) flightRecord(slot *replicaSlot, cause error) {
	if s.cfg.FlightDir == "" {
		return
	}
	st := slot.record()
	session := ""
	if r, ok := st.rep.(*dist.Replica); ok {
		session = r.Session()
	}
	reason := "unknown"
	if cause != nil {
		reason = cause.Error()
	}
	rec := obs.NewFlightRecord(fmt.Sprintf("stapd-replica-%d", slot.idx), session, reason, st.col)
	if links := st.linkStats(); len(links) > 0 {
		rec.Links = links
	}
	if s.fed != nil {
		if snaps := s.fed.snapshots(slot.idx); len(snaps) > 0 {
			rec.Nodes = snaps
		}
	}
	rec.History = s.historyLeadUp(slot.idx)
	path, err := obs.WriteFlightRecord(s.cfg.FlightDir, rec)
	if err != nil {
		s.cfg.Logf("stapd: replica %d flight record: %v", slot.idx, err)
		return
	}
	s.cfg.Logf("stapd: replica %d flight record written to %s", slot.idx, path)
}

// failDead answers one undispatchable job on a dead pool.
func (s *Server) failDead(j *job) {
	s.metrics.failed.Add(1)
	if j.attempts > 0 {
		// The job survived its replica's death but ran out of pool:
		// every failover attempt is exhausted, so the client finally
		// sees the loss.
		s.answer(j, &Response{ID: j.req.ID, Status: StatusReplicaLost,
			Err: "serve: replica lost; no live replicas for failover"}, false)
		return
	}
	s.answer(j, &Response{ID: j.req.ID, Status: StatusError, Err: "serve: no live replicas"}, true)
}

// answer produces a job's final response and releases its request slot
// first, so a client's next request finds it free: for reuse when clean
// says no replica incarnation can still read the job's cubes — none ran
// it, or the one that did completed it — and the job never failed over;
// retired otherwise (see requestSlots).
func (s *Server) answer(j *job, resp *Response, clean bool) {
	s.reqs.release(j.slot, clean && j.attempts == 0)
	j.done <- resp
}

// drainFailover answers whatever still sits in the failover channel.
// Called at the end of shutdown, when no replica loop can run jobs
// anymore.
func (s *Server) drainFailover() {
	for {
		select {
		case j := <-s.failover:
			s.failDead(j)
		default:
			return
		}
	}
}

// process runs one job on the slot's warm stream. It carries the job's
// deadline into the pipeline — the driver's world, wherever the workers
// run: a distributed slot's nodes stop when the recycle after the expiry
// aborts the replica — and journals every delivered CPI result on the job — the high-water mark
// a failover replay splices against. The journal only fills entries the
// previous attempts never delivered, so first-attempt results always win
// the splice. A completed job that asked for a trace gets one cut from the
// slot's span journal.
func (s *Server) process(slot *replicaSlot, j *job) (dets [][]stap.Detection, traceFile string, gen int64, err error) {
	req := j.req
	if j.results == nil {
		j.results = make([][]stap.Detection, len(req.CPIs))
	}
	opts := pipeline.JobOpts{
		Deadline: j.deadline,
		OnCPI: func(i int, d []stap.Detection) {
			if i >= 0 && i < len(j.results) && j.results[i] == nil {
				j.results[i] = d
			}
		},
	}
	st := slot.record()
	start, firstCPI := time.Now(), int(st.rep.CPIsProcessed())
	dets, err = st.rep.ProcessJobOpts(req.CPIs, opts)
	if err == nil && req.Trace && s.cfg.TraceDir != "" {
		journal := s.settledJournal(slot, st, firstCPI+len(req.CPIs)-1)
		traceFile, err = s.writeJobTrace(st.col, journal, start, firstCPI, len(req.CPIs))
	}
	return dets, traceFile, st.gen, err
}

// traceSettle bounds how long a traced job waits for its last spans.
const traceSettle = time.Second

// settledJournal returns the span journal of the slot's replica st once
// it holds every worker's span of stream CPI last, or after traceSettle.
// A worker journals a CPI's span after its send, so a job can complete
// before a task upstream of the collector has journaled its span of the
// job's last CPI.
func (s *Server) settledJournal(slot *replicaSlot, st slotState, last int) []obs.SpanEvent {
	deadline := time.Now().Add(traceSettle)
	for {
		journal := st.col.Journal()
		if _, ok := st.rep.(*dist.Replica); ok {
			// The workers' journals live on the nodes: poll them now and
			// merge them onto the coordinator collector's clock.
			s.pollNodes()
			journal = s.clusterEvents(slot)
		}
		spans := 0
		for _, ev := range journal {
			if ev.CPI == last {
				spans++
			}
		}
		if spans >= s.cfg.Assign.Total() || time.Now().After(deadline) {
			return journal
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// writeJobTrace cuts one served job's trace out of its replica's span
// journal (on col's time base) and writes it to TraceDir: a
// Perfetto-loadable Chrome trace (job%06d.trace.json, the response's
// TraceFile) and a rendered Gantt + utilization text companion. The job
// is the n CPIs from stream CPI index firstCPI, started at start; CPI
// indices and time are rebased to it.
func (s *Server) writeJobTrace(col *obs.Collector, journal []obs.SpanEvent, start time.Time, firstCPI, n int) (string, error) {
	var events []obs.SpanEvent
	for _, ev := range obs.SpansSince(journal, start.Sub(col.Start()).Nanoseconds()) {
		if ev.CPI >= firstCPI && ev.CPI < firstCPI+n {
			ev.CPI -= firstCPI
			events = append(events, ev)
		}
	}
	body := trace.EventGantt(events, col.Tasks(), start, trace.Options{Width: 100}) + "\n" +
		trace.EventUtilization(events, col.Tasks())
	if want := s.cfg.Assign.Total() * n; len(events) < want {
		body += fmt.Sprintf("\ntrace: %d of the job's %d spans; the rest were not in the span journal when the job"+
			" completed (a job longer than the journal ring keeps its newest spans; the weight tasks may still be"+
			" working on the last CPI, whose weights no CPI of this job uses)\n", len(events), want)
	}
	seq := s.traceSeq.Add(1)
	name := filepath.Join(s.cfg.TraceDir, fmt.Sprintf("job%06d.trace.json", seq))
	f, err := os.Create(name)
	if err != nil {
		return "", fmt.Errorf("serve: write trace: %w", err)
	}
	err = obs.WriteChromeTrace(f, events, col.Tasks())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(s.cfg.TraceDir, fmt.Sprintf("job%06d.trace.txt", seq)), []byte(body), 0o644)
	}
	if err != nil {
		return "", fmt.Errorf("serve: write trace: %w", err)
	}
	return name, nil
}

// Shutdown stops the server gracefully: it stops accepting connections
// and admitting jobs, lets every already-admitted job complete and its
// reply flush, then drains the pipeline replicas and returns. If ctx
// expires first, the replicas are aborted and connections force-closed;
// Shutdown still waits for every goroutine to exit before returning the
// context's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.admitting.Store(false)
		close(s.draining)
		// The replanner recycles slots, the sampler scrapes them, and the
		// federation poller dials them; stop all three before the pool
		// starts tearing them down.
		s.stopSampler()
		s.stopPlanner()
		s.stopFederation()
		if s.ln != nil {
			s.ln.Close()
		}
		s.acceptWG.Wait()

		done := make(chan struct{})
		var hard atomic.Bool
		watcher := make(chan struct{})
		go func() {
			defer close(watcher)
			select {
			case <-ctx.Done():
				hard.Store(true)
				close(s.stopping) // interrupt restart backoffs
				for _, sl := range s.slots {
					sl.record().rep.Abort()
				}
				s.closeConns()
			case <-done:
			}
		}()

		// Unblock connection readers; in-flight jobs still complete and
		// their replies flush before each connection closes.
		s.connMu.Lock()
		for c := range s.conns {
			c.SetReadDeadline(time.Now())
		}
		s.connMu.Unlock()
		s.readerWG.Wait()
		s.writerWG.Wait()

		// All producers are gone: close the queue, drain the replicas,
		// retire the warm pipelines (Close is idempotent, so slots the
		// hard path already aborted are fine).
		close(s.queue)
		s.replWG.Wait()
		// Replica loops are gone; answer anything a dying loop handed to
		// failover that nobody picked up.
		s.drainFailover()
		for _, sl := range s.slots {
			sl.record().rep.Close()
		}
		close(done)
		<-watcher
		if hard.Load() {
			s.shutdownErr = ctx.Err()
		}
		s.cfg.Logf("stapd: shutdown complete (%d jobs served, %d rejected)",
			s.metrics.completed.Load(), s.metrics.rejected.Load())
	})
	return s.shutdownErr
}

// closeConns force-closes every tracked connection (hard shutdown).
func (s *Server) closeConns() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for c := range s.conns {
		c.Close()
	}
}
