package dist

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pstap/internal/fault"
	"pstap/internal/obs"
	"pstap/internal/pipeline"
	"pstap/internal/wire"
)

// frameKind discriminates the link protocol's frame types.
type frameKind uint8

const (
	frameHello   frameKind = iota // first frame on every connection
	frameData                     // one mp message: (Src, Dst, Tag, Data)
	framePing                     // heartbeat probe (Seq matches the pong)
	framePong                     // heartbeat echo
	frameReady                    // node finished wiring its session
	frameGoodbye                  // orderly teardown; Reason names a fault
)

// frame is the single message of the link protocol; Kind selects which
// fields are meaningful. Its wire form (internal/wire) names the kind in
// the frame header — so a reader can hold, time or refuse a frame before
// its body is read — and the body is flat: exactly the fields AppendFlat
// writes for that kind, in the order DecodeFlat reads them back.
type frame struct {
	Kind frameKind

	// Hello fields.
	Session  string
	From, To int    // member indices
	Manifest []byte // coordinator hellos: the manifest's signed form (Manifest.Sign)
	Auth     []byte // the hello's MAC: over Manifest from the coordinator, peerAuth from a node

	// Data fields.
	Src, Dst, Tag int
	Data          any

	Seq int // ping and pong: the probe's sequence number

	Reason string // frameGoodbye: non-empty when a fault caused it

	// T is the sender's wall clock in unix nanoseconds, stamped on pong
	// frames: the responder's clock reading between the probe's send and
	// receive, which is exactly what NTP-style offset estimation needs.
	T int64
	// ObsAddr, on ready frames, advertises the node's telemetry HTTP
	// listener to the coordinator (empty when the node runs without one).
	ObsAddr string

	// in is not on the wire: on a link reader's frame it holds the
	// messages data frames decode into; nil decodes into fresh memory.
	in *edgeSlots
}

// AppendFlat implements wire.Flattener: the fields of f's kind, the
// pipeline message of a data frame in pipeline.AppendMessage's form.
func (f *frame) AppendFlat(e *wire.Enc) error {
	switch f.Kind {
	case frameHello:
		e.Text(f.Session)
		e.Int(f.From)
		e.Int(f.To)
		wire.PutSlice(e, f.Manifest, (*wire.Enc).Byte)
		wire.PutSlice(e, f.Auth, (*wire.Enc).Byte)
	case frameData:
		e.Int(f.Src)
		e.Int(f.Dst)
		e.Int(f.Tag)
		return pipeline.AppendMessage(e, f.Data)
	case framePing:
		e.Int(f.Seq)
	case framePong:
		e.Int(f.Seq)
		e.Int64(f.T)
	case frameReady:
		e.Text(f.ObsAddr)
	case frameGoodbye:
		e.Text(f.Reason)
	default:
		return fmt.Errorf("dist: unknown frame kind %d", f.Kind)
	}
	return nil
}

// DecodeFlat implements wire.FlatDecoder for a frame whose Kind the
// caller set from the frame header. The reads on each line run in field
// order: Go evaluates an assignment's calls left to right.
func (f *frame) DecodeFlat(d *wire.Dec) (err error) {
	*f = frame{Kind: f.Kind, in: f.in}
	switch f.Kind {
	case frameHello:
		f.Session, f.From, f.To = d.Text(), d.Int(), d.Int()
		f.Manifest, f.Auth = wire.GetSlice(d, 1, (*wire.Dec).Byte), wire.GetSlice(d, 1, (*wire.Dec).Byte)
	case frameData:
		f.Src, f.Dst, f.Tag = d.Int(), d.Int(), d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		slot, err := f.in.slot(f.Src, f.Dst, f.Tag)
		if err != nil {
			return err
		}
		*slot, err = pipeline.DecodeMessageInto(d, *slot)
		f.Data = *slot
		return err
	case framePing:
		f.Seq = d.Int()
	case framePong:
		f.Seq, f.T = d.Int(), d.Int64()
	case frameReady:
		f.ObsAddr = d.Text()
	case frameGoodbye:
		f.Reason = d.Text()
	default:
		return fmt.Errorf("dist: unknown frame kind %d", f.Kind)
	}
	return err
}

// dataFieldBytes is a data frame's own fields ahead of its message: Src,
// Dst and Tag.
const dataFieldBytes = 3 * 8

// maxDataBytes is the longest data frame body a session of man can send:
// its own fields and the session's largest message.
func maxDataBytes(man *Manifest) int {
	return dataFieldBytes + pipeline.MaxMessageBytes(man.Scene.Params, man.Assign)
}

// checkHeader refuses, on its header alone, a data frame longer than
// maxData bytes (maxDataBytes): nothing a peer of the session sends is
// that long, so its body is never read.
func checkHeader(k frameKind, n, maxData int) error {
	if k == frameData && n > maxData {
		return fmt.Errorf("dist: data frame of %d bytes, the session's messages fit in %d", n, maxData)
	}
	return nil
}

// edge is one message stream between two ranks.
type edge struct{ src, dst, stream int }

// edgeRing is one edge's slots and the count of its messages so far.
type edgeRing struct {
	n    int
	msgs []any
}

// edgeSlots is the memory a link's reader decodes data into: per edge, a
// ring of depth slots (pipeline.RingDepth of the session's window). The
// edge's k-th message is decoded into slot k % depth, over the message
// that arrived depth messages before it on the same edge
// (pipeline.DecodeMessageInto), so a warm link decodes without
// allocating. The reuse is pipeline's ring argument carried across the
// link:
//
//   - An edge's messages arrive in CPI order, at most one per CPI: one
//     sender sends them in order on one stream over one connection.
//   - So when message k carries CPI c, message k+depth carries a CPI of
//     at least c+depth, which its sender processed only after the feeder
//     admitted it — after CPI c+depth−window = c+1 completed.
//   - By then the ring argument already requires every consumer to be
//     done with CPI c's payloads (weights shipped at CPI c are applied at
//     CPI c+1), so message k and its slot are dead. No consumer changes.
//
// A slot is chosen by the edge's arrival count, not by the tag's CPI:
// that wraps at 2^20 CPIs (pipeline's tagCPIMask), where cpi % depth
// would jump and hand out a live slot.
//
// The slots hold at most depth times each edge's largest message, summed
// over the edges a member receives: at radar.Medium() under A10 split
// 0-2/3-6 and window 8 (depth 9), 9 × 2.1 MB of raw slabs on node 1 and
// 9 × 3.2 MB of pieces and weights on node 2, 45.6 MiB on the nodes.
type edgeSlots struct {
	depth    int
	owners   []int // rank → member
	from, to int   // the sending peer and this member
	rings    map[edge]*edgeRing
}

// slot returns the slot the next message of the edge (src, dst, the tag's
// stream) decodes into; on a nil receiver, a fresh one. A frame for an
// edge the link does not carry — src not the peer's, dst not this
// member's, or a tag of no stream — is an error.
func (s *edgeSlots) slot(src, dst, tag int) (*any, error) {
	if s == nil {
		return new(any), nil
	}
	stream, ok := pipeline.TagStream(tag)
	if !ok || src < 0 || src >= len(s.owners) || dst < 0 || dst >= len(s.owners) ||
		s.owners[src] != s.from || s.owners[dst] != s.to {
		return nil, fmt.Errorf("dist: data frame from rank %d to rank %d, tag %#x, is not on the link from member %d to member %d",
			src, dst, tag, s.from, s.to)
	}
	e := edge{src, dst, stream}
	r := s.rings[e]
	if r == nil {
		r = &edgeRing{msgs: make([]any, s.depth)}
		s.rings[e] = r
	}
	slot := &r.msgs[r.n%s.depth]
	r.n++
	return slot, nil
}

// writeFrame writes f to a connection that has no link yet: a hello, or
// the goodbye refusing one.
func writeFrame(w io.Writer, f *frame) error {
	_, err := wire.NewWriter(w).WriteFrame(wire.Kind(f.Kind), f)
	return err
}

// goodbyeError is the error a link dies with when the peer said goodbye
// carrying a fault reason — the remote world aborted and told us why.
type goodbyeError struct{ reason string }

func (e *goodbyeError) Error() string { return fmt.Sprintf("peer reported: %s", e.reason) }

// errClosedGracefully marks a goodbye with no fault attached: the peer
// tore the session down on purpose. Links killed with it do not abort the
// world as a failure.
var errClosedGracefully = &goodbyeError{reason: "session closed"}

// link is one full-duplex connection to a peer member: a writer that
// frames take turns on, heartbeat bookkeeping and transfer counters. The
// reader loop lives on the Transport, which owns dispatch.
// Each direction owns one frame buffer (wire.Writer, wire.Reader), grown
// to the largest frame the link has carried and reused for every frame.
// The reader reads the connection through a linkReadBuffer, so a header
// and a small body arrive in one read; a body longer than the buffer goes
// straight into the frame buffer. Nothing else reads the connection once
// the link runs (a node's handshake reads the hello unbuffered, before).
// It decodes each data frame's message into its edge's slot (edgeSlots),
// memory the receiver owns, and refuses at its header a data frame longer
// than any message of the session (checkHeader).
//
// A link has no flow control of its own. The stream's in-flight window
// bounds what an edge carries — the same bound that sizes the edge's slots
// (edgeSlots) — and TCP holds a sender in its socket write while the
// peer's buffers are full.
//
// A sender blocked in that write must not hide a dead peer, so nothing
// that judges the peer waits for the writer or blocks in a write past the
// silence limit (writeControl). The reader answers a ping only when the
// writer is free, so a blocked data write never stops it draining the
// socket. The heartbeat checks the silence before it pings and skips a
// ping while the writer is busy; a peer that stops reading is killed
// after heartbeatMisses silent intervals, and killing closes the
// connection, which fails the blocked write. A goodbye waits for the
// writer a bounded time (goodbye).
type link struct {
	member int
	addr   string
	conn   net.Conn

	wmu sync.Mutex   // the writer: serializes frame writes
	fw  *wire.Writer // guarded by wmu
	out frame        // the frame being written, guarded by wmu
	fr  *wire.Reader // owned by the Transport's reader loop
	in  *edgeSlots   // owned by the Transport's reader loop

	// silence is heartbeatMisses heartbeat intervals, how long the peer
	// may say nothing, or read nothing, before the link is dead; 0 without
	// a heartbeat.
	silence time.Duration

	seq atomic.Int64 // outbound data-frame sequence (fault addressing), not on the wire

	// death is the link's typed death cause, nil while it lives; the
	// first kill sets it.
	death atomic.Pointer[LinkError]

	// pings maps outstanding ping sequence → send time (heartbeat RTT).
	pmu       sync.Mutex
	pings     map[int]time.Time
	pingSeq   int
	lastHeard atomic.Int64 // unix nanos of the last inbound frame header

	msgsSent, msgsRecv   atomic.Int64
	bytesSent, bytesRecv atomic.Int64
	rttNs                atomic.Int64 // EWMA
	offsetNs             atomic.Int64 // EWMA clock offset: peer clock − local clock

	// Cumulative wire-cost counters for data frames: flat encode (ser) and
	// decode (deser), socket copy both directions (xmit), and time senders
	// waited for the writer while another frame left (stall).
	serNs, deserNs atomic.Int64
	xmitNs         atomic.Int64
	stallNs        atomic.Int64
}

// linkReadBuffer is the buffer a link reads its connection through.
const linkReadBuffer = 64 << 10

func newLink(member int, addr string, conn net.Conn, in *edgeSlots, hb time.Duration) *link {
	l := &link{
		member:  member,
		addr:    addr,
		conn:    conn,
		fw:      wire.NewWriter(conn),
		fr:      wire.NewReader(bufio.NewReaderSize(conn, linkReadBuffer)),
		in:      in,
		silence: heartbeatMisses * hb,
		pings:   make(map[int]time.Time),
	}
	l.lastHeard.Store(time.Now().UnixNano())
	return l
}

// write sends one frame once the writer is free. It returns the codec/IO
// split for the wire-cost accounting and how long it waited for the
// writer: 0 when the writer was free, so an uncontended write reads no
// clock. A holder blocked in its socket write frees the writer when the
// link is killed.
func (l *link) write(f frame) (ft wire.FrameTiming, waitNs int64, err error) {
	if !l.wmu.TryLock() {
		t0 := time.Now()
		l.wmu.Lock()
		waitNs = time.Since(t0).Nanoseconds()
	}
	ft, err = l.put(f)
	l.wmu.Unlock()
	return ft, waitNs, err
}

// put writes one frame, counting its bytes; the caller holds the writer.
// The frame is encoded from the link's own copy, so a send allocates
// nothing, and the copy is cleared after so the link pins no payload
// between sends.
func (l *link) put(f frame) (wire.FrameTiming, error) {
	l.out = f
	ft, err := l.fw.WriteFrame(wire.Kind(f.Kind), &l.out)
	l.out = frame{}
	if err != nil {
		return ft, err
	}
	l.bytesSent.Add(ft.Bytes)
	return ft, nil
}

// writeControl writes a ping or a pong if the writer is free; a frame
// the writer is too busy for is dropped, not an error. The write fails at
// the silence limit, so a peer that reads nothing cannot hold the caller
// — the heartbeat or the reader — in it.
func (l *link) writeControl(f frame) error {
	if !l.wmu.TryLock() {
		return nil
	}
	defer l.wmu.Unlock()
	l.conn.SetWriteDeadline(l.silenceLimit())
	defer l.conn.SetWriteDeadline(time.Time{})
	_, err := l.put(f)
	return err
}

// goodbye writes a goodbye frame carrying reason if it can leave by
// until, then kills the link. At until the link is killed in any case,
// which frees a writer stuck in its socket write, and the goodbye is
// dropped.
func (l *link) goodbye(reason string, until time.Time) {
	stop := time.AfterFunc(time.Until(until), func() { l.kill(errClosedGracefully) })
	l.wmu.Lock()
	if !l.dead() {
		l.conn.SetWriteDeadline(until)
		l.put(frame{Kind: frameGoodbye, Reason: reason})
	}
	l.wmu.Unlock()
	stop.Stop()
	l.kill(errClosedGracefully)
}

// silenceLimit is when the link is dead unless the peer is heard from
// again: l.silence after it was last heard (zero without a heartbeat). A
// ping or pong must leave by then: a peer that reads nothing that long is
// as dead as one that says nothing.
func (l *link) silenceLimit() time.Time {
	if l.silence <= 0 {
		return time.Time{}
	}
	return time.Unix(0, l.lastHeard.Load()).Add(l.silence)
}

// sendData ships one mp message, waiting for the writer. A nil return
// means the frame was written; any error means the link is (now) dead and
// the caller should treat the peer as lost. inj, when non-nil, runs the
// link-plane fault rules against (member, seq) — including any active
// partition/flap hold, which blocks the frame until the window clears.
// col, when non-nil, journals the send's wire-cost event (serialize,
// socket write, writer wait) under the payload's trace id. A data frame
// carries only its message's address (Src, Dst, Tag) and the message.
func (l *link) sendData(src, dst, tag int, data any, inj *fault.Injector, col *obs.Collector) error {
	if l.dead() {
		return l.deathErr()
	}
	seq := int(l.seq.Add(1) - 1)
	if inj != nil {
		inj.LinkHold(l.member)
		if err := inj.LinkSend(l.member, seq); err != nil {
			return err
		}
	}
	ft, stallNs, err := l.write(frame{Kind: frameData, Src: src, Dst: dst, Tag: tag, Data: data})
	if err != nil {
		return err
	}
	l.msgsSent.Add(1)
	l.serNs.Add(ft.CodecNs)
	l.xmitNs.Add(ft.IONs)
	l.stallNs.Add(stallNs)
	if col != nil {
		col.RecordWire(obs.WireEvent{
			Dir: obs.WireSend, Src: src, Dst: dst, Tag: tag,
			Trace: obs.TraceOf(data), Bytes: ft.Bytes,
			SerNs: ft.CodecNs, XmitNs: ft.IONs, StallNs: stallNs,
		})
	}
	return nil
}

// kill marks the link dead with the given error and closes the
// connection, which fails a write blocked in it. It reports whether this
// call was the first (the winning cause).
func (l *link) kill(err error) bool {
	if !l.mark(err) {
		return false
	}
	l.conn.Close()
	return true
}

// mark records err as the link's death cause, leaving the connection
// open, and reports whether this call was the first.
func (l *link) mark(err error) bool {
	return l.death.CompareAndSwap(nil, &LinkError{Member: l.member, Addr: l.addr, Err: err})
}

// dead reports whether the link has been killed.
func (l *link) dead() bool { return l.death.Load() != nil }

// deathErr is the link's death cause, a typed LinkError; call it only
// once the link is dead.
func (l *link) deathErr() error { return l.death.Load() }

// ping sends one heartbeat probe, carrying only its sequence number, if
// the writer is free. A probe not sent stays in pings, unanswered, until
// pruned.
func (l *link) ping() error {
	l.pmu.Lock()
	l.pingSeq++
	seq := l.pingSeq
	l.pings[seq] = time.Now()
	// Bound the outstanding map: a peer that answers nothing would grow it
	// one entry per interval until the miss limit kills the link anyway.
	for k := range l.pings {
		if k <= seq-2*heartbeatMisses {
			delete(l.pings, k)
		}
	}
	l.pmu.Unlock()
	return l.writeControl(frame{Kind: framePing, Seq: seq})
}

// pong matches a heartbeat echo to its probe, folds the round-trip into
// the RTT EWMA and — when the peer stamped its clock (peerT != 0) — the
// NTP-style midpoint estimate into the clock-offset EWMA: the peer read
// its clock between our send and our receive, so
// peerT − (send+recv)/2 ≈ peer_clock − local_clock, with error bounded
// by the link's asymmetry (≤ RTT/2).
func (l *link) pong(seq int, peerT int64) {
	l.pmu.Lock()
	t, ok := l.pings[seq]
	delete(l.pings, seq)
	l.pmu.Unlock()
	if !ok {
		return
	}
	now := time.Now()
	rtt := now.Sub(t).Nanoseconds()
	old := l.rttNs.Load()
	if old == 0 {
		l.rttNs.Store(rtt)
	} else {
		l.rttNs.Store(old - old/4 + rtt/4)
	}
	if peerT != 0 {
		// Sum of two unix-nano readings stays well inside int64.
		off := peerT - (t.UnixNano()+now.UnixNano())/2
		oldOff := l.offsetNs.Load()
		if oldOff == 0 {
			l.offsetNs.Store(off)
		} else {
			l.offsetNs.Store(oldOff - oldOff/4 + off/4)
		}
	}
}

// stats snapshots the link's transfer counters and clock state.
func (l *link) stats() LinkStats {
	return LinkStats{
		Member:    l.member,
		Addr:      l.addr,
		MsgsSent:  l.msgsSent.Load(),
		MsgsRecv:  l.msgsRecv.Load(),
		BytesSent: l.bytesSent.Load(),
		BytesRecv: l.bytesRecv.Load(),
		RTTNs:     l.rttNs.Load(),
		OffsetNs:  l.offsetNs.Load(),
		SerNs:     l.serNs.Load(),
		DeserNs:   l.deserNs.Load(),
		XmitNs:    l.xmitNs.Load(),
		StallNs:   l.stallNs.Load(),
	}
}
