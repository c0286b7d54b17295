// Package obs is the always-on observability layer of the pipelined STAP
// system: a low-overhead event core that every pipeline worker and the
// message-passing runtime feed, plus exporters that turn those events into
// the paper's own evaluation measures — eq. (1) throughput, eq. (2)
// latency bound and eq. (3) real latency — continuously, over a sliding
// window, while the system runs.
//
// The core is a Collector: per-task/per-worker atomic counters (CPIs
// processed, receive/compute/send nanoseconds), world-level message and
// byte counters (fed by internal/mp's send hook), and fixed-size ring
// journals of span and wire events (journal). Recording a span costs a
// handful of atomic adds and one uncontended slot lock, and allocates
// nothing; the journals are read only by exporters (Gauges, Chrome trace,
// Prometheus exposition), never by the data path. The package is
// stdlib-only and imports nothing from the rest of the repository, so
// every layer can depend on it.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TaskMeta describes one pipeline task for labeling and sizing.
type TaskMeta struct {
	Name    string
	Workers int
}

// Config describes a Collector.
type Config struct {
	// Tasks names the pipeline tasks and their worker counts, in task
	// order. RecordSpan indices must stay within these bounds.
	Tasks []TaskMeta
	// RingSize is the capacity in events of the span journal and of the
	// wire-event journal (default 4096). The span journal must hold
	// Window CPIs' worth of spans (one per worker per CPI) for the gauges
	// to see a full window.
	RingSize int
	// Window is the sliding gauge window in CPIs (default DefaultWindow).
	// A window the ring cannot hold (Window × total workers > RingSize)
	// would make the gauges silently average a partial window, so New
	// clamps it to RingSize / total workers (at least 1) and reports the
	// clamp through Logf.
	Window int
	// LatencyPath is the latency chain of eq. (2): each element is a set
	// of alternative tasks whose slowest member contributes one stage
	// (e.g. [[0],[3,4],[5],[6]] for the paper's T0+max(T3,T4)+T5+T6). The
	// first and last elements also define where eq. (3) real latency is
	// measured from and to. Empty disables the eq. (2)/(3) gauges.
	LatencyPath [][]int
	// SlowMultiple, when > 0, enables the slow-CPI log: any span whose
	// total time exceeds SlowMultiple times the task's recent median is
	// kept in the collector's slow-log ring (see SlowLog) and, when
	// SlowLogf is set, also reported through it.
	SlowMultiple float64
	// SlowLogf receives slow-CPI log lines (optional; the slow-log ring
	// fills either way).
	SlowLogf func(format string, args ...any)
	// Logf, when non-nil, receives collector self-diagnostics such as the
	// gauge-window clamp warning.
	Logf func(format string, args ...any)
}

// workerTotal is the total worker count across all tasks — the number of
// ring slots one CPI consumes.
func (cfg Config) workerTotal() int {
	n := 0
	for _, tm := range cfg.Tasks {
		n += tm.Workers
	}
	return n
}

// SpanEvent is one worker's Figure-10 loop for one CPI, with phase
// boundaries in nanoseconds since the collector's start: receive
// [T0, T1), compute [T1, T2), send [T2, T3). Trace is the CPI's trace
// identifier, stamped at pipeline ingest and carried with the data
// through every downstream hop (0 for untraced producers); Hop is the
// task-hop depth at which the span was recorded (0 = ingest task).
type SpanEvent struct {
	Task, Worker, CPI int
	Trace             uint64
	Hop               uint8
	T0, T1, T2, T3    int64
}

// WorkerCounters is one worker's monotonic tally. WaitNs is the portion
// of RecvNs spent blocked in the message runtime waiting for input (fed
// by mp.World.SetWaitObserver); the remainder of the receive phase is
// deserialize/copy work.
type WorkerCounters struct {
	CPIs                           atomic.Int64
	RecvNs, CompNs, SendNs, WaitNs atomic.Int64
}

// Wire-event direction: one event is recorded on each side of a
// distributed link transfer.
const (
	WireSend = iota // sender side: serialize, transmit, writer wait
	WireRecv        // receiver side: payload read, deserialize
)

// WireEvent is one side of one data-frame transfer on a distributed
// link: the measured cost components of moving a payload between
// processes. Durations are nanoseconds and clock-safe (measured on one
// node, no cross-node correction needed); At is nanoseconds since the
// recording collector's start.
//
// Sender side (Dir == WireSend): SerNs is the flat encode, XmitNs the
// socket write, StallNs the wait for the link's writer — for another
// sender's frame to leave — that preceded them. Receiver side (Dir ==
// WireRecv): XmitNs is the payload read off the socket (header wait is
// excluded — between frames it is idle time, not transfer cost) and
// DeserNs the flat decode.
type WireEvent struct {
	Dir      int // WireSend or WireRecv
	Src, Dst int // mp ranks of the payload's endpoints
	Tag      int
	Trace    uint64 // trace id of the carried payload (0 = untraced)
	Bytes    int64
	SerNs    int64
	DeserNs  int64
	XmitNs   int64
	StallNs  int64
	At       int64
}

// Traced is implemented by message payloads that carry a trace id (the
// pipeline's CPI-stamped control header). The distributed transport uses
// it to attribute wire costs to the CPI whose data crossed the link.
type Traced interface{ ObsTrace() uint64 }

// TraceOf extracts the trace id from a payload, 0 when it carries none.
func TraceOf(v any) uint64 {
	if tr, ok := v.(Traced); ok {
		return tr.ObsTrace()
	}
	return 0
}

// slowWindow is how many recent span totals the slow-CPI detector keeps
// per task, and slowMinSamples how many it needs before it starts
// flagging.
const (
	slowWindow     = 64
	slowMinSamples = 8
)

// slowLogSize is how many recent slow-CPI log lines the collector keeps
// for post-mortems (see SlowLog and the flight recorder).
const slowLogSize = 64

// slowTracker holds a task's recent span totals for median estimation.
// It is touched once per worker per CPI, far off the message hot path, so
// a mutex is cheap enough.
type slowTracker struct {
	mu     sync.Mutex
	totals []int64
	pos, n int
}

// Collector is the event core. All methods are safe for concurrent use.
type Collector struct {
	cfg   Config
	start time.Time

	counters [][]*WorkerCounters // [task][worker]
	msgs     atomic.Int64
	bytes    atomic.Int64

	spans journal[SpanEvent]
	wire  journal[WireEvent]

	slow []slowTracker // per task

	slowLogMu  sync.Mutex
	slowLines  [slowLogSize]string
	slowPos    int
	slowLogged int
}

// New builds a collector. The zero-value fields of cfg take their
// defaults; Tasks may be empty only if RecordSpan is never called.
func New(cfg Config) *Collector {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 4096
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if total := cfg.workerTotal(); total > 0 && cfg.Window*total > cfg.RingSize {
		clamped := cfg.RingSize / total
		if clamped < 1 {
			clamped = 1
		}
		if cfg.Logf != nil {
			cfg.Logf("obs: gauge window of %d CPIs needs %d ring slots but RingSize is %d; clamping window to %d",
				cfg.Window, cfg.Window*total, cfg.RingSize, clamped)
		}
		cfg.Window = clamped
	}
	cfg.validatePath()
	c := &Collector{
		cfg:      cfg,
		start:    time.Now(),
		counters: make([][]*WorkerCounters, len(cfg.Tasks)),
		spans:    newJournal[SpanEvent](cfg.RingSize),
		wire:     newJournal[WireEvent](cfg.RingSize),
		slow:     make([]slowTracker, len(cfg.Tasks)),
	}
	for t, tm := range cfg.Tasks {
		c.counters[t] = make([]*WorkerCounters, tm.Workers)
		for w := range c.counters[t] {
			c.counters[t][w] = &WorkerCounters{}
		}
		c.slow[t].totals = make([]int64, slowWindow)
	}
	return c
}

// Start returns the collector's time origin; SpanEvent offsets are
// relative to it.
func (c *Collector) Start() time.Time { return c.start }

// Tasks returns the task metadata the collector was built with.
func (c *Collector) Tasks() []TaskMeta { return c.cfg.Tasks }

// Window returns the gauge window in CPIs.
func (c *Collector) Window() int { return c.cfg.Window }

// RingSize returns the span journal's capacity in events.
func (c *Collector) RingSize() int { return len(c.spans.slots) }

// RecordSpan journals one worker-CPI span and bumps the counters. The
// timestamps follow the Figure-10 loop: t0 loop start (receive begins),
// t1 input ready (compute begins), t2 compute done (send begins), t3 loop
// end.
func (c *Collector) RecordSpan(task, worker, cpi int, t0, t1, t2, t3 time.Time) {
	c.RecordTracedSpan(task, worker, cpi, 0, 0, t0, t1, t2, t3)
}

// RecordTracedSpan is RecordSpan with the CPI's trace lineage attached:
// trace is the identifier stamped at ingest (0 = untraced) and hop the
// task-hop depth at which this span ran.
func (c *Collector) RecordTracedSpan(task, worker, cpi int, trace uint64, hop uint8, t0, t1, t2, t3 time.Time) {
	wc := c.counters[task][worker]
	wc.CPIs.Add(1)
	wc.RecvNs.Add(t1.Sub(t0).Nanoseconds())
	wc.CompNs.Add(t2.Sub(t1).Nanoseconds())
	wc.SendNs.Add(t3.Sub(t2).Nanoseconds())
	ev := SpanEvent{
		Task: task, Worker: worker, CPI: cpi,
		Trace: trace, Hop: hop,
		T0: t0.Sub(c.start).Nanoseconds(),
		T1: t1.Sub(c.start).Nanoseconds(),
		T2: t2.Sub(c.start).Nanoseconds(),
		T3: t3.Sub(c.start).Nanoseconds(),
	}
	c.spans.record(ev)
	if c.cfg.SlowMultiple > 0 {
		c.noteSlow(task, worker, cpi, ev.T3-ev.T0)
	}
}

// noteSlow compares a span total against the task's recent median and
// logs when it exceeds the configured multiple, then folds the total into
// the window.
func (c *Collector) noteSlow(task, worker, cpi int, total int64) {
	st := &c.slow[task]
	st.mu.Lock()
	var median int64
	if st.n >= slowMinSamples {
		sorted := append([]int64(nil), st.totals[:st.n]...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		median = sorted[len(sorted)/2]
	}
	st.totals[st.pos] = total
	st.pos = (st.pos + 1) % len(st.totals)
	if st.n < len(st.totals) {
		st.n++
	}
	st.mu.Unlock()
	if median > 0 && float64(total) > c.cfg.SlowMultiple*float64(median) {
		line := fmt.Sprintf("obs: slow CPI task=%q worker=%d cpi=%d total=%v median=%v multiple=%.2f",
			c.cfg.Tasks[task].Name, worker, cpi,
			time.Duration(total), time.Duration(median),
			float64(total)/float64(median))
		c.slowLogMu.Lock()
		c.slowLines[c.slowPos] = line
		c.slowPos = (c.slowPos + 1) % slowLogSize
		if c.slowLogged < slowLogSize {
			c.slowLogged++
		}
		c.slowLogMu.Unlock()
		if c.cfg.SlowLogf != nil {
			c.cfg.SlowLogf("%s", line)
		}
	}
}

// SlowLog returns the most recent slow-CPI log lines, oldest first — the
// post-mortem view the flight recorder dumps.
func (c *Collector) SlowLog() []string {
	c.slowLogMu.Lock()
	defer c.slowLogMu.Unlock()
	out := make([]string, 0, c.slowLogged)
	start := c.slowPos - c.slowLogged
	for i := 0; i < c.slowLogged; i++ {
		out = append(out, c.slowLines[((start+i)%slowLogSize+slowLogSize)%slowLogSize])
	}
	return out
}

// OnSend is the message-passing hook (mp.World.SetObserver): it accounts
// one sent message of the given payload size.
func (c *Collector) OnSend(bytes int64) {
	c.msgs.Add(1)
	c.bytes.Add(bytes)
}

// OnWait accounts blocked receive-wait time for one worker — the
// queue-wait share of its receive phase, fed by the message runtime's
// wait observer (mp.World.SetWaitObserver).
func (c *Collector) OnWait(task, worker int, ns int64) {
	c.counters[task][worker].WaitNs.Add(ns)
}

// RecordWire journals one wire cost event, stamping its At offset. Like
// span recording it allocates nothing.
func (c *Collector) RecordWire(ev WireEvent) {
	ev.At = time.Since(c.start).Nanoseconds()
	c.wire.record(ev)
}

// WireJournal returns the wire-event ring's contents, oldest first, with
// the same concurrent-writer caveats as Journal.
func (c *Collector) WireJournal() []WireEvent { return c.wire.read() }

// Messages returns the cumulative message count seen through OnSend.
func (c *Collector) Messages() int64 { return c.msgs.Load() }

// Bytes returns the cumulative payload bytes seen through OnSend.
func (c *Collector) Bytes() int64 { return c.bytes.Load() }

// Journal returns the ring's events, oldest first. Events being written
// concurrently, or overwritten across a wrap while the read runs, may be
// missed; every returned event is internally consistent.
func (c *Collector) Journal() []SpanEvent { return c.spans.read() }

// journal is a fixed-size ring of events that any number of recorders
// write and exporters read. A slot holds its event by value, so a record
// allocates nothing, behind the slot's own lock, so a reader never copies
// an event half written; the lock is uncontended unless a reader or a
// writer one wrap ahead is on the same slot. seq names the event a slot
// holds, so a reader takes an event only from the slot it was written to
// and skips one still being written or already overwritten.
type journal[T any] struct {
	slots []journalSlot[T]
	head  atomic.Uint64 // events recorded so far
}

type journalSlot[T any] struct {
	mu  sync.Mutex
	seq uint64 // 1 + the index of the event held, 0 while empty
	ev  T
}

func newJournal[T any](size int) journal[T] {
	return journal[T]{slots: make([]journalSlot[T], size)}
}

// record appends ev, overwriting the oldest event once the ring is full.
func (j *journal[T]) record(ev T) {
	i := j.head.Add(1) - 1
	s := &j.slots[i%uint64(len(j.slots))]
	s.mu.Lock()
	s.seq, s.ev = i+1, ev
	s.mu.Unlock()
}

// read returns the ring's events, oldest first.
func (j *journal[T]) read() []T {
	n := j.head.Load()
	size := uint64(len(j.slots))
	lo := uint64(0)
	if n > size {
		lo = n - size
	}
	out := make([]T, 0, n-lo)
	for i := lo; i < n; i++ {
		s := &j.slots[i%size]
		s.mu.Lock()
		if s.seq == i+1 {
			out = append(out, s.ev)
		}
		s.mu.Unlock()
	}
	return out
}

// SpansSince cuts the part of a span timeline that lies at or after
// origin (ns on the events' own time base) and rebases it to origin: one
// run's or one job's spans out of a journal that outlives it. Events that
// ended before origin are dropped; a span that straddles it — a worker's
// loop opens when its previous CPI ended, so its first span of a job
// starts waiting before the job arrives — is clipped to start at origin.
func SpansSince(events []SpanEvent, origin int64) []SpanEvent {
	var out []SpanEvent
	for _, ev := range events {
		if ev.T3 < origin {
			continue
		}
		ev.T0, ev.T1 = max(ev.T0-origin, 0), max(ev.T1-origin, 0)
		ev.T2, ev.T3 = max(ev.T2-origin, 0), ev.T3-origin
		out = append(out, ev)
	}
	return out
}

// WorkerSnapshot is one worker's counter totals. Wait is the blocked
// share of Recv (zero when the runtime's wait observer is not wired).
type WorkerSnapshot struct {
	CPIs                   int64
	Recv, Comp, Send, Wait time.Duration
}

// TaskSnapshot is one task's per-worker totals.
type TaskSnapshot struct {
	Name    string
	Workers []WorkerSnapshot
}

// Snapshot is a point-in-time copy of every counter.
type Snapshot struct {
	Uptime          time.Duration
	Tasks           []TaskSnapshot
	Messages, Bytes int64
}

// Snapshot copies the counters.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Uptime:   time.Since(c.start),
		Tasks:    make([]TaskSnapshot, len(c.cfg.Tasks)),
		Messages: c.msgs.Load(),
		Bytes:    c.bytes.Load(),
	}
	for t, tm := range c.cfg.Tasks {
		ts := TaskSnapshot{Name: tm.Name, Workers: make([]WorkerSnapshot, tm.Workers)}
		for w := range ts.Workers {
			wc := c.counters[t][w]
			ts.Workers[w] = WorkerSnapshot{
				CPIs: wc.CPIs.Load(),
				Recv: time.Duration(wc.RecvNs.Load()),
				Comp: time.Duration(wc.CompNs.Load()),
				Send: time.Duration(wc.SendNs.Load()),
				Wait: time.Duration(wc.WaitNs.Load()),
			}
		}
		s.Tasks[t] = ts
	}
	return s
}

// validatePath panics on a LatencyPath referencing unknown tasks — a
// configuration bug worth failing fast on.
func (cfg Config) validatePath() {
	for _, stage := range cfg.LatencyPath {
		for _, t := range stage {
			if t < 0 || t >= len(cfg.Tasks) {
				panic(fmt.Sprintf("obs: latency path task %d of %d tasks", t, len(cfg.Tasks)))
			}
		}
	}
}
