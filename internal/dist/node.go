package dist

import (
	"cmp"
	"crypto/hmac"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"pstap/internal/fault"
	"pstap/internal/history"
	"pstap/internal/obs"
	"pstap/internal/pipeline"
	"pstap/internal/wire"
)

// parkTTL bounds how long a peer connection may wait for the manifest
// that names its session before being dropped.
const parkTTL = 30 * time.Second

// helloTimeout bounds the first frame of an accepted connection.
const helloTimeout = 10 * time.Second

// NodeConfig configures a stapnode agent.
type NodeConfig struct {
	// Secret is the cluster secret: manifests and peer hellos must carry
	// a valid HMAC under it or the connection is refused.
	Secret []byte
	// Logf, when non-nil, receives agent log lines.
	Logf func(format string, args ...any)

	// Name labels this node in flight records and trace exports (the
	// listen address when empty).
	Name string
	// ObsAddr, when non-empty, is the node's telemetry HTTP listen
	// address; it is advertised to the coordinator on the ready frame so
	// stapd can federate this node's metrics and trace.
	ObsAddr string
	// ObsWindow overrides the session collector's gauge window in CPIs
	// (the obs default when 0).
	ObsWindow int
	// FlightDir, when non-empty, is where the node dumps a flight record
	// (span journal, link state, queue depths, slow-CPI log) whenever a
	// session dies of a fault. Graceful session teardown writes nothing;
	// the oldest records beyond obs.DefaultFlightKeep are pruned.
	FlightDir string
}

// Node is a stapnode agent: it listens for a coordinator's signed
// manifest, hosts its assigned task groups for the session's lifetime,
// then returns to listening. Sessions are sequential — one replica
// incarnation at a time; a coordinator arriving while a session is live
// is refused with a busy goodbye and retried by the serving layer's
// recycle loop. Peer connections that arrive before their session's
// manifest are parked until it does.
type Node struct {
	cfg NodeConfig
	ln  net.Listener

	mu     sync.Mutex
	sess   *session
	parked []parkedConn
	closed bool
	// plans keeps every fault plan a manifest has armed here, for the
	// node's lifetime: a once-only rule's fired state lives on the parsed
	// Plan, so re-parsing per session would re-arm it on every re-Connect
	// and kill the replacement replica the same way.
	plans map[planKey]*fault.Plan

	// The most recent wired session, kept past its end so the telemetry
	// surface stays useful for post-mortems between sessions.
	obsMu sync.Mutex
	last  *session

	// Metric history sampler (started by ObsMux, see obs.go).
	histMu   sync.Mutex
	hist     *history.Store
	histStop chan struct{}
	histDone chan struct{}

	wg sync.WaitGroup
}

type planKey struct {
	text string
	seed int64
}

type parkedConn struct {
	session string
	from    int
	conn    net.Conn
	at      time.Time
}

// session is one replica incarnation on this node.
type session struct {
	id     string
	member int
	man    *Manifest
	col    *obs.Collector // the session's telemetry
	hosted                // set under the node mutex once wired; zero until then
	done   chan struct{}  // closed when run returns
}

// NewNode wraps a listener as a stapnode agent; call Serve to run it.
func NewNode(ln net.Listener, cfg NodeConfig) *Node {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Node{cfg: cfg, ln: ln, plans: make(map[planKey]*fault.Plan)}
}

// Addr returns the agent's listen address.
func (n *Node) Addr() net.Addr { return n.ln.Addr() }

// name is the node's label in flight records and trace exports.
func (n *Node) name() string {
	if n.cfg.Name != "" {
		return n.cfg.Name
	}
	return n.ln.Addr().String()
}

// Serve accepts connections until the listener closes. Each connection's
// first frame decides its role: a manifest hello starts a session, a peer
// hello joins (or waits for) one.
func (n *Node) Serve() error {
	for {
		conn, err := n.ln.Accept()
		// Add under mu, where shutdown marks the node closed before its
		// Wait: a connection accepted as the node closes is dropped, not
		// counted into a WaitGroup already being waited on.
		n.mu.Lock()
		closed := n.closed
		if err == nil && !closed {
			n.wg.Add(1)
		}
		n.mu.Unlock()
		switch {
		case closed:
			if err == nil {
				conn.Close()
			}
			return nil
		case err != nil:
			return err
		}
		go func() {
			defer n.wg.Done()
			n.handshake(conn)
		}()
	}
}

// Close shuts the agent down: stop accepting, tear down the live session
// (its links say goodbye) and parked connections, and join every
// goroutine.
func (n *Node) Close() { n.shutdown(false) }

// Kill hard-stops the agent without goodbyes, modeling a killed process:
// every socket drops cold and peers must detect the loss through read
// errors or missed heartbeats. Used by chaos tests; real deployments die
// with the process.
func (n *Node) Kill() { n.shutdown(true) }

// shutdown is Close, or Kill when cold: the live session's sockets drop
// before its world is aborted, so the goodbyes its teardown sends go
// nowhere.
func (n *Node) shutdown(cold bool) {
	n.mu.Lock()
	n.closed = true
	sess, parked := n.sess, n.parked
	n.parked = nil
	var h hosted
	if sess != nil {
		h = sess.hosted
	}
	n.mu.Unlock()
	n.stopHistory()
	n.ln.Close()
	for _, p := range parked {
		p.conn.Close()
	}
	if h.world != nil {
		if cold {
			h.tr.dropConns()
		}
		h.world.Abort()
	}
	if sess != nil {
		<-sess.done
	}
	n.wg.Wait()
}

// maxHelloBytes bounds the first frame of an accepted connection, checked
// on its header. The largest hello is a coordinator's, nearly all signed
// manifest: 1.4–1.7 KB for each of the seven scenarios at radar.Medium()
// with seven nodes at maximum-length addresses (swarm, with the most
// targets, is the largest). 64 KiB is ~40 times that: room for a long
// fault plan, and all an unauthenticated peer can make a node buffer.
const maxHelloBytes = 64 << 10

// handshake reads a connection's hello and routes it. The header is
// checked before the body is read — a hello, and at most maxHelloBytes —
// and a coordinator's manifest is decoded only after its MAC checks out
// over the bytes received.
func (n *Node) handshake(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	fr := wire.NewReader(conn)
	k, size, err := fr.Next()
	var verr *wire.VersionError
	if errors.As(err, &verr) {
		// A peer from another build: say so in this build's format, which
		// the peer's reader refuses with both versions named.
		n.cfg.Logf("stapnode: refusing hello from %v: %v", conn.RemoteAddr(), err)
		writeFrame(conn, &frame{Kind: frameGoodbye, Reason: err.Error()})
		wire.CloseAfterReply(conn) // the refused hello's body is unread
		return
	}
	f := frame{Kind: frameKind(k)}
	if err == nil && (f.Kind != frameHello || size > maxHelloBytes) {
		err = fmt.Errorf("first frame is kind %d of %d bytes, want a hello of at most %d", k, size, maxHelloBytes)
	}
	if err == nil {
		_, err = fr.Decode(&f)
	}
	if err != nil {
		if err != io.EOF {
			n.cfg.Logf("stapnode: refusing connection from %v: %v", conn.RemoteAddr(), err)
		}
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	var man *Manifest
	switch {
	case f.From != 0 && hmac.Equal(f.Auth, peerAuth(n.cfg.Secret, f.Session, f.From, f.To)):
		n.routePeer(conn, &f)
		return
	case f.From != 0:
		err = errors.New("peer hello MAC does not verify under the cluster secret")
	default:
		man, err = verifyManifest(n.cfg.Secret, f.Manifest, f.Auth)
		if err == nil && (f.Session != man.Session || f.To < 1 || f.To > len(man.Nodes)) {
			err = fmt.Errorf("hello for session %s member %d does not match its manifest", f.Session, f.To)
		}
	}
	if err != nil {
		n.cfg.Logf("stapnode: rejecting hello from %v: %v", conn.RemoteAddr(), err)
		conn.Close()
		return
	}
	n.startSession(conn, f.To, man)
}

// refuse answers a connection with a goodbye naming why, then closes it.
func refuse(conn net.Conn, reason string) {
	writeFrame(conn, &frame{Kind: frameGoodbye, Reason: reason})
	conn.Close()
}

// startSession spins up member's share of the session a manifest
// describes, unless one is already live.
func (n *Node) startSession(conn net.Conn, member int, man *Manifest) {
	n.mu.Lock()
	if n.closed || n.sess != nil {
		n.mu.Unlock()
		refuse(conn, "node busy")
		return
	}
	s := &session{id: man.Session, member: member, man: man, done: make(chan struct{})}
	n.sess = s
	n.mu.Unlock()

	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.runSession(s, conn)
	}()
}

// routePeer attaches a peer connection to its live session or parks it
// until the session's manifest arrives. The park-or-attach decision and
// the session's publication share the node mutex, so no connection can
// fall between them.
func (n *Node) routePeer(conn net.Conn, f *frame) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return
	}
	var tr *Transport
	if s := n.sess; s != nil && s.id == f.Session {
		tr = s.tr
	}
	if tr == nil {
		n.parked = append(n.parked, parkedConn{session: f.Session, from: f.From, conn: conn, at: time.Now()})
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	tr.runLink(f.From, conn.RemoteAddr().String(), conn)
}

// runSession hosts one replica incarnation end to end: open the member's
// share of the session, wire every peer link, report ready, then serve
// until the world dies — a graceful goodbye from the coordinator, a link
// failure, or a local worker fault — and tear everything down.
func (n *Node) runSession(s *session, coordConn net.Conn) {
	defer close(s.done)
	defer n.clearSession(s)
	man := s.man
	logf := n.cfg.Logf

	ocfg := pipeline.DefaultObsConfig(man.Assign)
	ocfg.Window = n.cfg.ObsWindow
	ocfg.Logf = logf
	ocfg.SlowLogf = logf
	s.col = obs.New(ocfg)
	var h hosted
	inj, err := n.injector(man)
	if err == nil {
		h, err = openSession(man, s.member, s.col, inj, 0)
	}
	if err != nil {
		logf("stapnode: session %s: %v", s.id, err)
		refuse(coordConn, err.Error())
		return
	}
	// Publish the session and claim connections parked for it under one
	// lock: every peer hello either lands in the claimed set or attaches
	// directly through routePeer afterwards. A node closed meanwhile found
	// nothing to abort, so the session aborts itself.
	n.mu.Lock()
	s.hosted = h
	if n.closed {
		h.world.Abort()
	}
	var claimed, keep []parkedConn
	for _, p := range n.parked {
		switch {
		case p.session == s.id:
			claimed = append(claimed, p)
		case time.Since(p.at) > parkTTL:
			p.conn.Close()
		default:
			keep = append(keep, p)
		}
	}
	n.parked = keep
	n.mu.Unlock()
	n.obsMu.Lock()
	n.last = s
	n.obsMu.Unlock()

	// The coordinator link is the accepted manifest connection; parked
	// peers attach now; lower-indexed peers we dial ourselves.
	h.tr.runLink(0, coordConn.RemoteAddr().String(), coordConn)
	for _, p := range claimed {
		h.tr.runLink(p.from, p.conn.RemoteAddr().String(), p.conn)
	}
	for j := 1; j < s.member; j++ {
		addr := man.Nodes[j-1].Addr
		conn, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
		if err == nil {
			if err = writeFrame(conn, &frame{Kind: frameHello, Session: s.id, From: s.member, To: j,
				Auth: peerAuth(n.cfg.Secret, s.id, s.member, j)}); err != nil {
				conn.Close()
			}
		}
		if err != nil {
			logf("stapnode: session %s: dial peer %d (%s): %v", s.id, j, addr, err)
			h.world.AbortWith(&LinkError{Member: j, Addr: addr, Err: err})
			h.tr.Close(fmt.Sprintf("peer %d unreachable", j))
			h.st.Abort()
			return
		}
		h.tr.runLink(j, addr, conn)
	}

	if l, lerr := h.tr.waitLink(0); lerr == nil {
		if _, _, werr := l.write(frame{Kind: frameReady, ObsAddr: n.cfg.ObsAddr}); werr != nil {
			h.tr.linkDied(l, werr)
		}
	}
	placement := man.Placement()
	logf("stapnode: session %s: member %d hosting tasks %d-%d (%d ranks) ready, manifest %s",
		s.id, s.member, placement[s.member-1][0], placement[s.member-1][1],
		placement.HostedRanks(man.Assign, s.member).N, man.SigPrefix())

	<-h.world.Done()

	// Explain the death to the peers that have not seen it themselves: a
	// local worker fault or abort cause rides the goodbye frame.
	reason := ""
	if faults := h.st.Faults(); len(faults) > 0 {
		reason = faults[0].String()
	} else if cause := h.world.AbortCause(); cause != nil {
		reason = cause.Error()
	}
	h.tr.Close(reason)
	h.st.Abort()
	if reason != "" && n.cfg.FlightDir != "" {
		rec := obs.NewFlightRecord(n.name(), s.id, reason, s.col)
		rec.Links = h.tr.Stats()
		rec.Pending = h.world.QueueDepths()
		if path, werr := obs.WriteFlightRecord(n.cfg.FlightDir, rec); werr != nil {
			logf("stapnode: session %s: flight record: %v", s.id, werr)
		} else {
			logf("stapnode: session %s: flight record written to %s", s.id, path)
		}
	}
	logf("stapnode: session %s: ended (%s)", s.id, cmp.Or(reason, "graceful"))
}

// injector arms the manifest's fault plan (nil when it has none) from the
// node's parsed copy of it, parsing the plan the first time it is seen.
func (n *Node) injector(man *Manifest) (*fault.Injector, error) {
	if man.FaultPlan == "" {
		return nil, nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	key := planKey{man.FaultPlan, man.Seed}
	p := n.plans[key]
	if p == nil {
		var err error
		if p, err = fault.ParsePlan(man.FaultPlan); err != nil {
			return nil, fmt.Errorf("bad fault plan: %w", err)
		}
		n.plans[key] = p
	}
	return p.Injector(man.Seed), nil
}

// clearSession removes the finished session so the next manifest can
// start a new one.
func (n *Node) clearSession(s *session) {
	n.mu.Lock()
	if n.sess == s {
		n.sess = nil
	}
	n.mu.Unlock()
}
