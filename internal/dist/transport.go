package dist

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pstap/internal/fault"
	"pstap/internal/mp"
	"pstap/internal/obs"
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

	mu       sync.Mutex
	cond     *sync.Cond
	links    map[int]*link
	closed   bool
	failure  error          // first link failure, sticky
	obsAddrs map[int]string // member → telemetry addr from ready frames

	// wiring is the coordinator's news of its members, in arrival order:
	// each reports ready once and its link dies once, hence two per link.
	wiring chan wiringEvent

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
		wiring:   make(chan wiringEvent, 2*(members+1)),
		stop:     make(chan struct{}),
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Send implements mp.Transport: it routes one message to the member
// hosting dst, blocking on link registration (peers may still be dialing
// in) and on the link's writer. Any returned error means the peer is
// lost; mp turns it into a world abort with this error as the cause.
func (t *Transport) Send(src, dst, tag int, data any) error {
	if dst < 0 || dst >= len(t.owners) {
		return fmt.Errorf("dist: send to rank %d outside world of %d", dst, len(t.owners))
	}
	l, err := t.waitLink(t.owners[dst])
	if err != nil {
		return err
	}
	if err := l.sendData(src, dst, tag, data, t.inj, t.obs); err != nil {
		t.linkDied(l, err)
		return l.deathErr()
	}
	return nil
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

// waitLink returns the link to a member, blocking until it is registered.
// It fails once the transport is closed or any link has died — a dead
// cluster must not strand senders waiting for a peer that will never dial.
func (t *Transport) waitLink(member int) (*link, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if l, ok := t.links[member]; ok {
			if l.dead() {
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
		rings: make(map[edge]*edgeRing)}, t.hb)
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
			if l.dead() {
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
		case framePing:
			// Stamp the local clock on the echo: the probe's sender uses it
			// for NTP-style offset estimation. The echo is dropped while a
			// data frame holds the writer — the reader never waits for it —
			// and the prober hears that frame instead.
			if err := l.writeControl(frame{Kind: framePong, Seq: f.Seq, T: time.Now().UnixNano()}); err != nil {
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
			t.noteWiring(wiringEvent{member: l.member})
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
// vanished without closing its socket, or stopped reading it. It never
// waits for the writer, nor blocks in a ping past the silence limit
// (link.ping), so a sender blocked in a socket write cannot hold the
// silence check off.
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
			if l.dead() {
				return
			}
			if silent := time.Now().UnixNano() - l.lastHeard.Load(); silent > int64(l.silence) {
				t.linkDied(l, fmt.Errorf("dist: heartbeat: peer silent for %v", time.Duration(silent)))
				return
			}
			// Inside a partition/flap window our own probes would not
			// cross the dark route either; skipping them starves the
			// peer's silence clock just like the real thing.
			if t.inj != nil && t.inj.LinkHeld(l.member) {
				continue
			}
			if err := l.ping(); err != nil {
				t.linkDied(l, fmt.Errorf("dist: heartbeat: ping: %w", err))
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
// failures, plainly for a graceful goodbye — and only then closes the
// connection. The peer sees the close and tells the other members, whose
// goodbyes come back on other links; by then this world holds the first
// cause, not their echo of it.
func (t *Transport) linkDied(l *link, err error) {
	if !l.mark(err) {
		return
	}
	defer l.conn.Close()
	graceful := errors.Is(err, errClosedGracefully)
	t.mu.Lock()
	if t.failure == nil && !graceful {
		t.failure = l.deathErr()
	}
	t.mu.Unlock()
	t.cond.Broadcast()
	t.noteWiring(wiringEvent{member: l.member, err: l.deathErr()})
	if w := t.world; w != nil {
		if graceful {
			w.Abort()
		} else {
			w.AbortWith(l.deathErr())
		}
	}
}

// wiringEvent is a member that reported ready (err nil) or whose link
// died (err its *LinkError).
type wiringEvent struct {
	member int
	err    error
}

// noteWiring queues ev for awaitReady without blocking: only a
// coordinator reads the events, and a link yields at most two, bar a peer
// that repeats its ready frame.
func (t *Transport) noteWiring(ev wiringEvent) {
	select {
	case t.wiring <- ev:
	default:
	}
}

// awaitReady blocks until n distinct members have reported ready, or the
// timeout passes, or the link to a member that has not reported ready
// dies: that node failed, or said goodbye, while it wired up, and the
// wait ends at once with the link's typed *LinkError. A member that dies
// after its ready frame had finished wiring: its death is the replica's,
// and the first job reports it.
func (t *Transport) awaitReady(n int, timeout time.Duration) error {
	seen := make(map[int]bool)
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for len(seen) < n {
		select {
		case ev := <-t.wiring:
			if ev.err == nil {
				seen[ev.member] = true
			} else if !seen[ev.member] {
				return ev.err
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
// links are killed and every goroutine joined. Idempotent. A goodbye
// must leave within one heartbeat interval of Close, waiting for its
// link's writer included, or it is dropped; so a writer stuck in a socket
// write delays Close by at most that. Close itself does not abort the
// bound world — callers sequence that.
func (t *Transport) Close(reason string) {
	t.closeOne.Do(func() {
		t.mu.Lock()
		t.closed = true
		t.mu.Unlock()
		t.cond.Broadcast()
		close(t.stop)
		until := time.Now().Add(t.hb)
		for _, l := range t.linkList() {
			l.goodbye(reason, until)
		}
	})
	t.wg.Wait()
}
