package dist

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pstap/internal/fault"
	"pstap/internal/mp"
	"pstap/internal/obs"
	"pstap/internal/pipeline"
)

// errTransportClosed is what operations on a closed transport return; it
// marks an orderly local teardown, not a peer failure.
var errTransportClosed = errors.New("dist: transport closed")

// Transport implements mp.Transport over the member links of one replica
// session. Each process owns one Transport: rank-addressed sends resolve
// the destination's owning member and ride that link's data frames;
// inbound data frames are injected into the local partial world with
// mp.World.Deliver.
// openSession builds and binds it; links attach afterwards (runLink).
type Transport struct {
	self    int   // this process's member index
	members int   // node count (members 1..members are nodes)
	owners  []int // rank → owning member
	hb      time.Duration
	inj     *fault.Injector // link-plane faults (may be nil)

	world *mp.World      // bound before any link reader starts
	obs   *obs.Collector // wire-cost journal sink; set before any link attaches
	// From the session's manifest, set before any link attaches: the
	// slots per inbound edge (edgeSlots) and the longest data frame body
	// (checkHeader).
	depth, maxData int

	// deadline is the current job's absolute deadline (coordinator unix
	// nanos, 0 = none): the coordinator sets it around each job and every
	// outbound data and ping frame carries it, so the stamp propagates
	// hop by hop. Receivers fold inbound stamps into their own deadline
	// and arm the local abort monitor below.
	deadline atomic.Int64
	dlMu     sync.Mutex
	dlCancel func() // disarms the world's AbortAt monitor

	mu       sync.Mutex
	cond     *sync.Cond
	links    map[int]*link
	closed   bool
	failure  error          // first link failure, sticky
	obsAddrs map[int]string // member → telemetry addr from ready frames

	ready chan int // coordinator: members that reported ready

	stop     chan struct{} // ends heartbeat loops
	closeOne sync.Once
	wg       sync.WaitGroup
}

func newTransport(self, members int, owners []int, hb time.Duration, inj *fault.Injector) *Transport {
	t := &Transport{
		self:     self,
		members:  members,
		owners:   owners,
		hb:       hb,
		inj:      inj,
		links:    make(map[int]*link),
		obsAddrs: make(map[int]string),
		ready:    make(chan int, members+1),
		stop:     make(chan struct{}),
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Send implements mp.Transport: it routes one message to the member
// hosting dst, blocking on link registration (peers may still be dialing
// in) and on the link's credit window. Any returned error means the peer
// is lost; mp turns it into a world abort with this error as the cause.
func (t *Transport) Send(src, dst, tag int, data any) error {
	if dst < 0 || dst >= len(t.owners) {
		return fmt.Errorf("dist: send to rank %d outside world of %d", dst, len(t.owners))
	}
	l, err := t.waitLink(t.owners[dst])
	if err != nil {
		return err
	}
	if err := l.sendData(src, dst, tag, data, t.deadline.Load(), t.inj, t.obs); err != nil {
		t.linkDied(l, err)
		return l.deathErr()
	}
	return nil
}

// SetDeadline installs (or, with 0, clears) the current job's absolute
// deadline in unix nanoseconds. The coordinator calls it around each
// deadline-bounded job; subsequent data and ping frames carry the value
// to the nodes. Clearing also fires an immediate ping on every live link
// so idle nodes disarm their monitors promptly instead of waiting out a
// heartbeat interval.
func (t *Transport) SetDeadline(ns int64) {
	old := t.deadline.Swap(ns)
	if ns != 0 {
		return
	}
	t.disarmDeadline()
	if old == 0 {
		return
	}
	for _, l := range t.linkList() {
		if !l.dead.Load() {
			l.ping(0)
		}
	}
}

// linkList snapshots the registered links.
func (t *Transport) linkList() []*link {
	t.mu.Lock()
	defer t.mu.Unlock()
	links := make([]*link, 0, len(t.links))
	for _, l := range t.links {
		links = append(links, l)
	}
	return links
}

// noteDeadline folds an inbound frame's deadline stamp into the local
// state: a new nonzero value re-arms the abort monitor (converted to the
// local clock through the link's offset EWMA, plus two heartbeats of
// grace for a clear that is still in flight); a zero stamp after a
// nonzero one disarms it. The monitor is the node-side guarantee that
// past-deadline CPIs stop consuming CPU even when the coordinator cannot
// reach this process to abort it.
func (t *Transport) noteDeadline(ns, offsetNs int64) {
	if t.deadline.Swap(ns) == ns {
		return
	}
	if ns == 0 {
		t.disarmDeadline()
		return
	}
	local := time.Unix(0, ns-offsetNs).Add(2 * t.hb)
	cause := fmt.Errorf("dist: deadline monitor: %w", pipeline.ErrDeadlineExceeded)
	t.dlMu.Lock()
	if t.dlCancel != nil {
		t.dlCancel()
	}
	t.dlCancel = t.world.AbortAt(local, cause)
	t.dlMu.Unlock()
}

// disarmDeadline cancels the abort monitor, if armed.
func (t *Transport) disarmDeadline() {
	t.dlMu.Lock()
	if t.dlCancel != nil {
		t.dlCancel()
		t.dlCancel = nil
	}
	t.dlMu.Unlock()
}

// waitLink returns the link to a member, blocking until it is registered.
// It fails once the transport is closed or any link has died — a dead
// cluster must not strand senders waiting for a peer that will never dial.
func (t *Transport) waitLink(member int) (*link, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if l, ok := t.links[member]; ok {
			if l.dead.Load() {
				return nil, l.deathErr()
			}
			return l, nil
		}
		if t.failure != nil {
			return nil, t.failure
		}
		if t.closed {
			return nil, errTransportClosed
		}
		t.cond.Wait()
	}
}

// runLink registers the link to member over conn and starts its reader
// and heartbeat; on a closed transport it closes conn instead.
func (t *Transport) runLink(member int, addr string, conn net.Conn) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return
	}
	l := newLink(member, addr, conn, &edgeSlots{depth: t.depth, owners: t.owners, from: member, to: t.self,
		rings: make(map[edge]*edgeRing)})
	t.links[member] = l
	t.mu.Unlock()
	t.cond.Broadcast()
	t.wg.Add(2)
	go t.readLoop(l)
	go t.heartbeat(l)
}

// readLoop dispatches every inbound frame of one link until it dies,
// decoding each into the same frame value and each data frame's message
// into its edge's slot.
func (t *Transport) readLoop(l *link) {
	defer t.wg.Done()
	f := frame{in: l.in}
	for {
		k, n, err := l.fr.Next()
		if err == nil {
			err = checkHeader(frameKind(k), n, t.maxData)
		}
		if err != nil {
			t.linkDied(l, err)
			return
		}
		f.Kind = frameKind(k)
		// An active partition/flap window holds the frame here — before
		// the silence clock below resets — so the peer's traffic is
		// delayed, not lost, while heartbeat misses accumulate exactly as
		// they would across a dark route. Only data frames may open a
		// window: anchoring on control traffic would start partitions
		// during the connect handshake.
		if t.inj != nil {
			if f.Kind == frameData {
				t.inj.LinkHold(l.member)
			} else {
				t.inj.LinkHoldPassive(l.member)
			}
			if l.dead.Load() {
				return
			}
		}
		// Life is byte progress: a header proves the peer alive before its
		// body is read or decoded, however long a large frame takes.
		l.lastHeard.Store(time.Now().UnixNano())
		ft, err := l.fr.Decode(&f)
		if err != nil {
			t.linkDied(l, err)
			return
		}
		l.bytesRecv.Add(ft.Bytes)
		switch f.Kind {
		case frameData:
			t.noteDeadline(f.Deadline, l.offsetNs.Load())
			l.msgsRecv.Add(1)
			l.deserNs.Add(ft.CodecNs)
			l.xmitNs.Add(ft.IONs)
			if col := t.obs; col != nil {
				col.RecordWire(obs.WireEvent{
					Dir: obs.WireRecv, Src: f.Src, Dst: f.Dst, Tag: f.Tag,
					Trace: obs.TraceOf(f.Data), Bytes: ft.Bytes,
					DeserNs: ft.CodecNs, XmitNs: ft.IONs,
				})
			}
			t.world.Deliver(f.Src, f.Dst, f.Tag, f.Data)
			if n := l.noteDelivered(); n > 0 {
				if _, err := l.write(frame{Kind: frameCredit, Credits: n}); err != nil {
					t.linkDied(l, err)
					return
				}
			}
		case frameCredit:
			l.addCredits(f.Credits)
		case framePing:
			t.noteDeadline(f.Deadline, l.offsetNs.Load())
			// Stamp the local clock on the echo: the probe's sender uses it
			// for NTP-style offset estimation.
			if _, err := l.write(frame{Kind: framePong, Seq: f.Seq, T: time.Now().UnixNano()}); err != nil {
				t.linkDied(l, err)
				return
			}
		case framePong:
			l.pong(f.Seq, f.T)
		case frameReady:
			if f.ObsAddr != "" {
				t.mu.Lock()
				t.obsAddrs[l.member] = f.ObsAddr
				t.mu.Unlock()
			}
			select {
			case t.ready <- l.member:
			default:
			}
		case frameGoodbye:
			if f.Reason != "" {
				t.linkDied(l, &goodbyeError{reason: f.Reason})
			} else {
				t.linkDied(l, errClosedGracefully)
			}
			return
		}
	}
}

// heartbeat pings the peer every interval and kills the link after
// heartbeatMisses intervals of silence — the detector for a peer that
// vanished without closing its socket.
func (t *Transport) heartbeat(l *link) {
	defer t.wg.Done()
	if t.hb <= 0 {
		return
	}
	tick := time.NewTicker(t.hb)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if l.dead.Load() {
				return
			}
			if silent := time.Now().UnixNano() - l.lastHeard.Load(); silent > int64(heartbeatMisses)*int64(t.hb) {
				t.linkDied(l, fmt.Errorf("dist: heartbeat: peer silent for %v", time.Duration(silent)))
				return
			}
			// Inside a partition/flap window our own probes would not
			// cross the dark route either; skipping them starves the
			// peer's silence clock just like the real thing.
			if t.inj != nil && t.inj.LinkHeld(l.member) {
				continue
			}
			if err := l.ping(t.deadline.Load()); err != nil {
				t.linkDied(l, err)
				return
			}
		case <-t.stop:
			return
		}
	}
}

// linkDied handles a link failure exactly once: it records the sticky
// transport failure, wakes everyone waiting on links, and
// aborts the bound world — with the typed LinkError as the cause for real
// failures, plainly for a graceful goodbye.
func (t *Transport) linkDied(l *link, err error) {
	if !l.kill(err) {
		return
	}
	graceful := errors.Is(err, errClosedGracefully)
	t.mu.Lock()
	if t.failure == nil && !graceful {
		t.failure = l.deathErr()
	}
	t.mu.Unlock()
	t.cond.Broadcast()
	if w := t.world; w != nil {
		if graceful {
			w.Abort()
		} else {
			w.AbortWith(l.deathErr())
		}
	}
}

// awaitReady blocks until n distinct members have reported ready, or the
// deadline passes, or a link dies.
func (t *Transport) awaitReady(n int, timeout time.Duration) error {
	seen := make(map[int]bool)
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	check := time.NewTicker(20 * time.Millisecond)
	defer check.Stop()
	for len(seen) < n {
		select {
		case m := <-t.ready:
			seen[m] = true
		case <-check.C:
			t.mu.Lock()
			err := t.failure
			t.mu.Unlock()
			if err != nil {
				return err
			}
		case <-deadline.C:
			return fmt.Errorf("dist: %d of %d nodes ready after %v", len(seen), n, timeout)
		}
	}
	return nil
}

// Stats snapshots every live link's counters, ordered by member index.
func (t *Transport) Stats() []LinkStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]LinkStats, 0, len(t.links))
	for m := 0; m <= t.members; m++ {
		if l, ok := t.links[m]; ok {
			out = append(out, l.stats())
		}
	}
	return out
}

// dropConns severs every link's raw connection without any goodbye — the
// kill-test hook simulating a dead process.
func (t *Transport) dropConns() {
	for _, l := range t.linkList() {
		l.conn.Close()
	}
}

// Close tears the transport down: a best-effort goodbye frame (carrying
// reason when the local world died of a fault) on every link, then the
// links are killed and every goroutine joined. Idempotent. Close itself
// does not abort the bound world — callers sequence that.
func (t *Transport) Close(reason string) {
	t.closeOne.Do(func() {
		t.disarmDeadline()
		t.mu.Lock()
		t.closed = true
		t.mu.Unlock()
		t.cond.Broadcast()
		close(t.stop)
		for _, l := range t.linkList() {
			if !l.dead.Load() {
				l.write(frame{Kind: frameGoodbye, Reason: reason})
			}
			l.kill(errClosedGracefully)
		}
	})
	t.wg.Wait()
}
