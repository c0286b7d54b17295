// Package mp is a rank-based message-passing runtime over goroutines and
// condition variables — the repository's stand-in for MPI (the paper's
// implementation language is ANSI C + MPI). It provides the primitives the
// parallel pipeline uses: point-to-point Send/Recv with (source, tag)
// matching, barriers, and byte accounting for the communication model.
// The overlap the paper buys with double buffering (Figure 10) comes from
// the asynchronous Send into the receiver's mailbox, bounded by the
// pipeline's in-flight CPI window.
//
// Semantics: sends are asynchronous and buffered (they never block);
// messages between a (src, dst) pair with equal tags are matched in send
// order; Recv blocks until a matching message arrives. Tags let the
// pipeline keep per-CPI streams separate.
package mp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// AnySource matches messages from every rank in Recv/TryRecv.
const AnySource = -1

// ErrAborted is the panic value raised by blocking operations (Recv,
// TryRecv, Barrier) on an aborted world — the runtime's analogue of
// MPI_Abort tearing down a communicator. Rank goroutines written in the
// straight-line MPI style have no error-return path for cancellation, so
// the abort propagates as a panic; wrap each rank's body in Protect to
// convert it back into a normal goroutine exit.
var ErrAborted = errors.New("mp: world aborted")

// Sizer lets payloads report their wire size for accounting. cube.Cube and
// cube.RealCube implement it via their Bytes methods.
type Sizer interface{ Bytes() int64 }

// Transport ships messages for ranks the local process does not host —
// the seam that lets one logical World span OS processes (internal/dist
// provides the TCP implementation). Send delivers (src, dst, tag, data)
// to dst's hosting process; it may block on flow control but must return
// an error, not hang forever, when the peer is unreachable. Barrier runs
// the cross-process phase of World.Barrier after all locally hosted ranks
// have arrived, returning once every process's hosted ranks have entered;
// it must unblock with an error when the world is aborted. Both are
// called concurrently from many rank goroutines.
type Transport interface {
	Send(src, dst, tag int, data any) error
	Barrier() error
}

type message struct {
	src, tag int
	data     any
	seq      uint64 // arrival order for FIFO matching
}

// mailbox is one rank's queue of delivered, not yet received messages.
// Send never blocks, so nothing here bounds it; its user's flow control
// does. The pipeline's (internal/pipeline) is its in-flight window W: the
// feeder admits CPI c only after the collector finished CPI c−W, and a
// rank's messages are tagged with the CPI they serve. So while jobs of at
// least two CPIs run, a rank with in inbound messages per CPI holds at
// most
//
//	W·in + ahead   messages, ahead of them the weights it receives: they
//	               are shipped one CPI ahead of their use, so their tags
//	               run one past the last CPI admitted;
//	(W+2)·in       on a weight task's rank: the collector waits for the
//	               weights of every CPI but a job's last, so this rank may
//	               trail it by one CPI, or by two across a job boundary.
//
// Close's EOF adds one message per inbound edge. A run of one-CPI jobs
// trains no weights, so nothing waits for the weight tasks and their
// queues are bounded only by how fast they drain those CPIs' flags.
// TestMailboxBound (internal/pipeline) checks the bound.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
	seq   uint64
}

// World is a fixed-size collection of ranks sharing mailboxes. A world
// normally hosts every rank in-process; a partial world (NewPartialWorld)
// hosts a contiguous rank interval and routes traffic for the rest
// through a Transport, so several processes compose one logical world.
type World struct {
	boxes  []*mailbox
	hosted Group     // ranks whose mailboxes live in this process
	trans  Transport // carries traffic for non-hosted ranks (nil = full world)

	bytesSent atomic.Int64
	msgsSent  atomic.Int64

	// abortCause, when set by AbortWith, explains why the world died
	// (e.g. a dist link failure); readers use AbortCause.
	abortCause atomic.Value // abortReason

	// observer, when non-nil, is called on every Send with the payload's
	// wire size (0 for non-Sizer payloads) — the hook the observability
	// layer (internal/obs) uses for live message/byte accounting. Set it
	// with SetObserver before any rank goroutine starts.
	observer func(bytes int64)

	// sendHook and recvHook, when non-nil, intercept the message plane for
	// fault injection (internal/fault): sendHook may corrupt or drop a
	// message before delivery (or sleep, delaying the sender), recvHook
	// runs on entry to every blocking Recv (sleeping there delays the
	// receiver). Set them with SetSendHook/SetRecvHook before any rank
	// goroutine starts.
	sendHook func(src, dst, tag int, data any) (any, bool)
	recvHook func(rank, src, tag int)

	// waitObserver, when non-nil, receives the time each blocking Recv
	// spent waiting for its message — the queue-wait share of a worker's
	// receive phase, which the attribution layer (internal/obs) splits
	// from deserialize/copy work. Nil costs the hot path nothing: no
	// clock is read. Set with SetWaitObserver before any rank goroutine
	// starts.
	waitObserver func(rank int, ns int64)

	aborted   atomic.Bool
	done      chan struct{}
	abortOnce sync.Once

	barMu    sync.Mutex
	barCond  *sync.Cond
	barCount int
	barGen   int
}

// NewWorld creates a world of n ranks, all hosted in-process.
func NewWorld(n int) *World {
	return NewPartialWorld(n, Group{First: 0, N: n}, nil)
}

// NewPartialWorld creates a world of n ranks of which only the hosted
// interval lives in this process; messages to every other rank are routed
// through t, and inbound traffic is injected with Deliver. The same
// (n, Layout) must be used by every participating process so the rank
// spaces agree. t may be nil only when hosted covers the whole world.
func NewPartialWorld(n int, hosted Group, t Transport) *World {
	if n <= 0 {
		panic(fmt.Sprintf("mp: world size %d", n))
	}
	if hosted.First < 0 || hosted.N <= 0 || hosted.First+hosted.N > n {
		panic(fmt.Sprintf("mp: hosted ranks [%d,%d) outside world of %d", hosted.First, hosted.First+hosted.N, n))
	}
	if t == nil && hosted.N != n {
		panic("mp: partial world needs a transport")
	}
	w := &World{boxes: make([]*mailbox, n), hosted: hosted, trans: t, done: make(chan struct{})}
	for i := range w.boxes {
		b := &mailbox{}
		b.cond = sync.NewCond(&b.mu)
		w.boxes[i] = b
	}
	w.barCond = sync.NewCond(&w.barMu)
	return w
}

// Hosted returns the rank interval whose mailboxes live in this process.
func (w *World) Hosted() Group { return w.hosted }

// Hosts reports whether the rank's mailbox lives in this process.
func (w *World) Hosts(rank int) bool { return w.hosted.Contains(rank) }

// QueueDepths snapshots every rank's pending-message count, indexed by
// world rank; ranks not hosted in this process report -1. It is the
// flight recorder's view of where traffic was piled up when a replica
// died, and is safe to call on an aborted world.
func (w *World) QueueDepths() []int {
	out := make([]int, len(w.boxes))
	for r := range out {
		if !w.Hosts(r) {
			out[r] = -1
			continue
		}
		b := w.boxes[r]
		b.mu.Lock()
		out[r] = len(b.queue)
		b.mu.Unlock()
	}
	return out
}

// abortReason wraps the cause error for the atomic.Value (which needs a
// single consistent concrete type).
type abortReason struct{ err error }

// Abort tears the world down: every rank blocked in Recv, TryRecv or
// Barrier — and every such call made afterwards — panics with ErrAborted,
// and subsequent Sends are dropped. Safe to call from any goroutine and
// idempotent.
func (w *World) Abort() { w.AbortWith(nil) }

// AbortWith aborts the world recording why — the path a transport takes
// when a link to a peer process dies, so the supervising layer can
// surface a typed connection-loss error instead of a bare closed-stream
// one. Only the first cause wins; a plain Abort records none.
func (w *World) AbortWith(cause error) {
	w.abortOnce.Do(func() {
		if cause != nil {
			w.abortCause.Store(abortReason{cause})
		}
		w.aborted.Store(true)
		close(w.done)
		for _, b := range w.boxes {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		}
		w.barMu.Lock()
		w.barCond.Broadcast()
		w.barMu.Unlock()
	})
}

// AbortAt arms a one-shot deadline on the world: when t arrives and the
// returned cancel has not run, the world aborts with cause — the per-job
// deadline seam shared by a local pipeline stream and a distributed
// node's transport monitor. A zero t is a no-op (cancel still safe to
// call). cancel is idempotent and returns only after any pending abort
// decision is settled, so callers can sequence "cancel, then reuse the
// world" without racing the timer.
func (w *World) AbortAt(t time.Time, cause error) (cancel func()) {
	if t.IsZero() {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		timer := time.NewTimer(time.Until(t))
		defer timer.Stop()
		select {
		case <-timer.C:
			w.AbortWith(cause)
		case <-stop:
		case <-w.done:
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(stop) })
		<-done
	}
}

// AbortCause returns the error recorded by AbortWith, nil for a live
// world or a plain Abort.
func (w *World) AbortCause() error {
	if r, ok := w.abortCause.Load().(abortReason); ok {
		return r.err
	}
	return nil
}

// Aborted reports whether Abort has been called.
func (w *World) Aborted() bool { return w.aborted.Load() }

// Done returns a channel closed when the world is aborted, for use in
// select statements alongside ordinary channel operations.
func (w *World) Done() <-chan struct{} { return w.done }

// Protect runs f, converting an ErrAborted panic raised by a blocking
// operation on an aborted world into a normal return. Any other panic
// propagates. It returns true when f was cut short by an abort.
func Protect(f func()) (aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == ErrAborted {
				aborted = true
				return
			}
			panic(r)
		}
	}()
	f()
	return false
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.boxes) }

// BytesSent returns the cumulative payload bytes sent through the world
// (payloads implementing Sizer only).
func (w *World) BytesSent() int64 { return w.bytesSent.Load() }

// MessagesSent returns the cumulative message count.
func (w *World) MessagesSent() int64 { return w.msgsSent.Load() }

// SetObserver installs a per-send accounting hook. It must be called
// before any rank goroutine starts sending; the hook itself must be safe
// for concurrent use (ranks send in parallel).
func (w *World) SetObserver(f func(bytes int64)) { w.observer = f }

// SetSendHook installs a send interceptor: it receives every message's
// (src, dst, tag, payload) before delivery and returns the payload to
// deliver — possibly replaced or corrupted — plus drop=true to discard
// the message entirely (a dropped message is neither delivered nor
// counted). Sleeping in the hook delays the sender. Same timing and
// concurrency rules as SetObserver.
func (w *World) SetSendHook(f func(src, dst, tag int, data any) (any, bool)) { w.sendHook = f }

// SetRecvHook installs a receive interceptor, called on entry to every
// blocking Recv with the receiver's rank and requested (src, tag).
// Sleeping in the hook delays receipt. Same timing and concurrency rules
// as SetObserver.
func (w *World) SetRecvHook(f func(rank, src, tag int)) { w.recvHook = f }

// SetWaitObserver installs a queue-wait accounting hook: every blocking
// Recv that actually waited reports how long. The hook runs with the
// receiving mailbox locked, so it must be fast and must not call back
// into the world (an atomic add, as internal/obs does, is the intended
// shape). Same timing and concurrency rules as SetObserver; with no
// observer installed Recv reads no clock.
func (w *World) SetWaitObserver(f func(rank int, ns int64)) { w.waitObserver = f }

// Comm is one rank's endpoint.
type Comm struct {
	w    *World
	rank int
}

// Comm returns the endpoint for the given rank.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= len(w.boxes) {
		panic(fmt.Sprintf("mp: rank %d of %d", rank, len(w.boxes)))
	}
	return &Comm{w: w, rank: rank}
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.Size() }

// Send delivers data to dst's mailbox asynchronously. On an aborted world
// the message is dropped. Sends to locally hosted ranks never block; a
// send routed to another process may block briefly on the transport's
// flow control, and a transport failure aborts the world with the typed
// link error as its cause (the message-passing analogue of a fatal
// interconnect fault).
func (c *Comm) Send(dst, tag int, data any) {
	if c.w.aborted.Load() {
		return
	}
	if h := c.w.sendHook; h != nil {
		var drop bool
		if data, drop = h(c.rank, dst, tag, data); drop {
			return
		}
	}
	if !c.w.Hosts(dst) {
		c.w.account(data)
		if err := c.w.trans.Send(c.rank, dst, tag, data); err != nil {
			c.w.AbortWith(err)
		}
		return
	}
	c.w.boxes[dst].enqueue(c.rank, tag, data)
	c.w.account(data)
}

// enqueue appends a message to the mailbox and wakes its waiters.
func (b *mailbox) enqueue(src, tag int, data any) {
	b.mu.Lock()
	b.seq++
	b.queue = append(b.queue, message{src: src, tag: tag, data: data, seq: b.seq})
	b.mu.Unlock()
	b.cond.Broadcast()
}

// account applies the send-side byte/message accounting and observer hook.
func (w *World) account(data any) {
	w.msgsSent.Add(1)
	var size int64
	if s, ok := data.(Sizer); ok {
		size = s.Bytes()
		w.bytesSent.Add(size)
	}
	if w.observer != nil {
		w.observer(size)
	}
}

// Deliver injects a message that arrived from a remote process into dst's
// local mailbox — the receive half of a Transport. Accounting and hooks
// ran on the sending process; delivery on an aborted world is dropped,
// mirroring Send.
func (w *World) Deliver(src, dst, tag int, data any) {
	if !w.Hosts(dst) {
		panic(fmt.Sprintf("mp: deliver to rank %d not hosted in [%d,%d)", dst, w.hosted.First, w.hosted.First+w.hosted.N))
	}
	if w.aborted.Load() {
		return
	}
	w.boxes[dst].enqueue(src, tag, data)
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// payload. src may be AnySource. Among matching messages the earliest
// arrival wins. Recv panics with ErrAborted when the world is aborted.
func (c *Comm) Recv(src, tag int) any {
	if h := c.w.recvHook; h != nil {
		h(c.rank, src, tag)
	}
	if !c.w.Hosts(c.rank) {
		panic(fmt.Sprintf("mp: Recv on rank %d not hosted here", c.rank))
	}
	box := c.w.boxes[c.rank]
	box.mu.Lock()
	defer box.mu.Unlock()
	var waitStart time.Time // set on the first miss, when an observer wants it
	for {
		if c.w.aborted.Load() {
			panic(ErrAborted)
		}
		best := -1
		for i, m := range box.queue {
			if (src == AnySource || m.src == src) && m.tag == tag {
				if best == -1 || m.seq < box.queue[best].seq {
					best = i
				}
			}
		}
		if best >= 0 {
			m := box.queue[best]
			box.queue = append(box.queue[:best], box.queue[best+1:]...)
			if wo := c.w.waitObserver; wo != nil && !waitStart.IsZero() {
				wo(c.rank, time.Since(waitStart).Nanoseconds())
			}
			return m.data
		}
		if c.w.waitObserver != nil && waitStart.IsZero() {
			waitStart = time.Now()
		}
		box.cond.Wait()
	}
}

// TryRecv returns a matching message if one is already queued, without
// blocking. ok is false when nothing matches. Like Recv, TryRecv panics
// with ErrAborted on an aborted world — local mailboxes and remote links
// honor identical abort semantics, so polling loops unwind the same way
// blocking ones do.
func (c *Comm) TryRecv(src, tag int) (data any, ok bool) {
	if !c.w.Hosts(c.rank) {
		panic(fmt.Sprintf("mp: TryRecv on rank %d not hosted here", c.rank))
	}
	box := c.w.boxes[c.rank]
	box.mu.Lock()
	defer box.mu.Unlock()
	if c.w.aborted.Load() {
		panic(ErrAborted)
	}
	best := -1
	for i, m := range box.queue {
		if (src == AnySource || m.src == src) && m.tag == tag {
			if best == -1 || m.seq < box.queue[best].seq {
				best = i
			}
		}
	}
	if best < 0 {
		return nil, false
	}
	m := box.queue[best]
	box.queue = append(box.queue[:best], box.queue[best+1:]...)
	return m.data, true
}

// Barrier blocks until every rank of the world has entered it. In a
// partial world the last locally hosted arriver additionally runs the
// transport's cross-process barrier before anyone is released, so the
// semantics match the single-process case. Barrier panics with ErrAborted
// when the world is aborted.
func (w *World) Barrier() {
	w.barMu.Lock()
	if w.aborted.Load() {
		w.barMu.Unlock()
		panic(ErrAborted)
	}
	gen := w.barGen
	w.barCount++
	if w.barCount == w.hosted.N {
		if w.trans != nil {
			// Cross-process phase, run unlocked so Deliver and Abort stay
			// live. No local rank can re-enter this generation: none has
			// been released yet.
			w.barMu.Unlock()
			err := w.trans.Barrier()
			w.barMu.Lock()
			if err != nil || w.aborted.Load() {
				w.barMu.Unlock()
				w.AbortWith(err)
				panic(ErrAborted)
			}
		}
		w.barCount = 0
		w.barGen++
		w.barMu.Unlock()
		w.barCond.Broadcast()
		return
	}
	for gen == w.barGen {
		if w.aborted.Load() {
			w.barMu.Unlock()
			panic(ErrAborted)
		}
		w.barCond.Wait()
	}
	w.barMu.Unlock()
}

// Group is a contiguous rank interval [First, First+Size) representing one
// parallel task's processors.
type Group struct {
	First, N int
}

// Ranks lists the group's global ranks.
func (g Group) Ranks() []int {
	out := make([]int, g.N)
	for i := range out {
		out[i] = g.First + i
	}
	return out
}

// Contains reports membership.
func (g Group) Contains(rank int) bool { return rank >= g.First && rank < g.First+g.N }

// Local converts a global rank to a group-local index.
func (g Group) Local(rank int) int { return rank - g.First }

// Global converts a group-local index to a global rank.
func (g Group) Global(local int) int { return g.First + local }

// Layout assigns consecutive rank intervals to task sizes, in order.
func Layout(sizes []int) []Group {
	groups := make([]Group, len(sizes))
	off := 0
	for i, n := range sizes {
		if n <= 0 {
			panic(fmt.Sprintf("mp: task %d size %d", i, n))
		}
		groups[i] = Group{First: off, N: n}
		off += n
	}
	return groups
}
