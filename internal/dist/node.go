package dist

import (
	"crypto/hmac"
	"errors"
	"fmt"
	"net"
	"time"

	"sync"

	"pstap/internal/fault"
	"pstap/internal/history"
	"pstap/internal/mp"
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
	// Window overrides the per-link credit window (DefaultWindow if 0).
	Window int
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
	// session dies of a fault. Graceful session teardown writes nothing.
	FlightDir string
	// FlightKeep bounds how many flight records accumulate in FlightDir:
	// after each write the oldest beyond this count are pruned
	// (obs.DefaultFlightKeep when <= 0).
	FlightKeep int
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

	// Telemetry state of the most recent session, kept past its end so
	// the HTTP surface stays useful for post-mortems between sessions.
	obsMu      sync.Mutex
	lastCol    *obs.Collector
	lastSess   string
	lastMember int
	lastTr     *Transport
	lastAssign pipeline.Assignment

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
	tr     *Transport
	world  *mp.World
	st     *pipeline.Stream
	done   chan struct{} // closed when run returns
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
		if err != nil {
			n.mu.Lock()
			closed := n.closed
			n.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handshake(conn)
		}()
	}
}

// Close shuts the agent down: stop accepting, tear down the live session
// and parked connections, and join every goroutine.
func (n *Node) Close() {
	n.mu.Lock()
	n.closed = true
	sess := n.sess
	parked := n.parked
	n.parked = nil
	var world *mp.World
	if sess != nil {
		world = sess.world
	}
	n.mu.Unlock()
	n.stopHistory()
	n.ln.Close()
	for _, p := range parked {
		p.conn.Close()
	}
	if world != nil {
		world.Abort()
	}
	if sess != nil {
		<-sess.done
	}
	n.wg.Wait()
}

// Kill hard-stops the agent without goodbyes, modeling a killed process:
// every socket drops cold and peers must detect the loss through read
// errors or missed heartbeats. Used by chaos tests; real deployments die
// with the process.
func (n *Node) Kill() {
	n.mu.Lock()
	n.closed = true
	sess := n.sess
	parked := n.parked
	n.parked = nil
	var tr *Transport
	var world *mp.World
	if sess != nil {
		tr, world = sess.tr, sess.world
	}
	n.mu.Unlock()
	n.stopHistory()
	n.ln.Close()
	for _, p := range parked {
		p.conn.Close()
	}
	if tr != nil {
		tr.dropConns()
	}
	if world != nil {
		world.Abort()
	}
	if sess != nil {
		<-sess.done
	}
	n.wg.Wait()
}

// handshake reads a connection's hello and routes it.
func (n *Node) handshake(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	var f frame
	err := wire.ReadFrame(conn, &f)
	var verr *wire.VersionError
	if errors.As(err, &verr) {
		// A peer from another build: say so in this build's format, which
		// the peer's reader refuses with both versions named.
		n.cfg.Logf("stapnode: refusing hello from %v: %v", conn.RemoteAddr(), err)
		wire.WriteFrame(conn, &frame{Kind: frameGoodbye, Reason: err.Error()})
		wire.CloseAfterReply(conn) // the refused hello's body is unread
		return
	}
	if err != nil || f.Kind != frameHello {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	switch {
	case f.Manifest != nil:
		if !f.Manifest.Verify(n.cfg.Secret) || f.Session != f.Manifest.Session ||
			f.From != 0 || f.To < 1 || f.To > len(f.Manifest.Nodes) {
			n.cfg.Logf("stapnode: rejecting unauthenticated manifest hello from %v", conn.RemoteAddr())
			conn.Close()
			return
		}
		n.startSession(conn, &f)
	default:
		if !hmac.Equal(f.Auth, peerAuth(n.cfg.Secret, f.Session, f.From, f.To)) {
			n.cfg.Logf("stapnode: rejecting unauthenticated peer hello from %v", conn.RemoteAddr())
			conn.Close()
			return
		}
		n.routePeer(conn, &f)
	}
}

// startSession spins up the session a manifest hello describes, unless
// one is already live.
func (n *Node) startSession(conn net.Conn, f *frame) {
	n.mu.Lock()
	if n.closed || n.sess != nil {
		n.mu.Unlock()
		wire.WriteFrame(conn, &frame{Kind: frameGoodbye, Reason: "node busy"})
		conn.Close()
		return
	}
	s := &session{id: f.Session, member: f.To, man: f.Manifest, done: make(chan struct{})}
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
// the session's transport publication share the node mutex, so no
// connection can fall between them.
func (n *Node) routePeer(conn net.Conn, f *frame) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return
	}
	var tr *Transport
	if s := n.sess; s != nil && s.id == f.Session && s.tr != nil {
		tr = s.tr
	}
	if tr == nil {
		n.parked = append(n.parked, parkedConn{session: f.Session, from: f.From, conn: conn, at: time.Now()})
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	tr.runLink(newLink(f.From, conn.RemoteAddr().String(), conn, n.cfg.Window))
}

// runSession hosts one replica incarnation end to end: build the partial
// world and transport, wire every peer link, spawn the hosted task
// groups, report ready, then serve until the world dies — a graceful
// goodbye from the coordinator, a link failure, or a local worker fault —
// and tear everything down.
func (n *Node) runSession(s *session, coordConn net.Conn) {
	defer close(s.done)
	defer n.clearSession(s)
	man := s.man
	logf := n.cfg.Logf

	placement := man.Placement()
	if err := placement.Validate(); err != nil {
		logf("stapnode: session %s: bad placement: %v", s.id, err)
		coordConn.Close()
		return
	}
	var inj *fault.Injector
	if man.FaultPlan != "" {
		plan, err := n.faultPlan(man.FaultPlan, man.Seed)
		if err != nil {
			logf("stapnode: session %s: bad fault plan: %v", s.id, err)
			coordConn.Close()
			return
		}
		inj = plan.Injector(man.Seed)
	}

	tr := newTransport(s.member, len(man.Nodes), placement.Owners(man.Assign), n.cfg.Window, man.Heartbeat, inj)
	world := mp.NewPartialWorld(man.Assign.Total()+1, placement.HostedRanks(man.Assign, s.member), tr)
	tr.Bind(world)
	ocfg := pipeline.DefaultObsConfig(man.Assign)
	ocfg.Window = n.cfg.ObsWindow
	ocfg.Logf = logf
	ocfg.SlowLogf = logf
	col := obs.New(ocfg)
	tr.Observe(col)
	n.obsMu.Lock()
	n.lastCol, n.lastSess, n.lastMember, n.lastTr = col, s.id, s.member, tr
	n.lastAssign = man.Assign
	n.obsMu.Unlock()
	if inj != nil {
		inj.Bind(world.Done())
	}
	// Publish the transport and claim connections parked for this session
	// under one lock: every peer hello either lands in the claimed set or
	// attaches directly through routePeer afterwards.
	n.mu.Lock()
	s.tr, s.world = tr, world
	var claimed []parkedConn
	var keep []parkedConn
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

	// The coordinator link is the accepted manifest connection; parked
	// peers attach now; lower-indexed peers we dial ourselves.
	tr.runLink(newLink(0, coordConn.RemoteAddr().String(), coordConn, n.cfg.Window))
	for _, p := range claimed {
		tr.runLink(newLink(p.from, p.conn.RemoteAddr().String(), p.conn, n.cfg.Window))
	}
	for j := 1; j < s.member; j++ {
		addr := man.Nodes[j-1].Addr
		conn, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
		if err == nil {
			err = wire.WriteFrame(conn, &frame{Kind: frameHello, Session: s.id, From: s.member, To: j,
				Auth: peerAuth(n.cfg.Secret, s.id, s.member, j)})
		}
		if err != nil {
			logf("stapnode: session %s: dial peer %d (%s): %v", s.id, j, addr, err)
			world.AbortWith(&LinkError{Member: j, Addr: addr, Err: err})
			tr.Close(fmt.Sprintf("peer %d unreachable", j))
			return
		}
		tr.runLink(newLink(j, addr, conn, n.cfg.Window))
	}

	st, err := pipeline.NewHostedStream(pipeline.StreamConfig{
		Scene:   man.Scene,
		Assign:  man.Assign,
		Window:  man.Window,
		Threads: man.Threads,
		Obs:     col,
		Fault:   inj,
	}, pipeline.Hosting{World: world, Tasks: placement.Tasks(s.member)})
	if err != nil {
		logf("stapnode: session %s: %v", s.id, err)
		world.AbortWith(err)
		tr.Close(err.Error())
		return
	}
	s.st = st

	if l, lerr := tr.waitLink(0); lerr == nil {
		if werr := l.write(&frame{Kind: frameReady, ObsAddr: n.cfg.ObsAddr}); werr != nil {
			tr.linkDied(l, werr)
		}
	}
	logf("stapnode: session %s: member %d hosting tasks %d-%d (%d ranks) ready, manifest %s",
		s.id, s.member, placement[s.member-1][0], placement[s.member-1][1],
		placement.HostedRanks(man.Assign, s.member).N, man.SigPrefix())

	<-world.Done()

	// Explain the death to the peers that have not seen it themselves: a
	// local worker fault or abort cause rides the goodbye frame.
	reason := ""
	deadlined := false
	if faults := st.Faults(); len(faults) > 0 {
		reason = faults[0].String()
	} else if cause := world.AbortCause(); cause != nil {
		reason = cause.Error()
		// A job deadline expiring is the client's bound, not a node
		// fault: say why on the goodbye, but keep the flight recorder for
		// real post-mortems.
		deadlined = errors.Is(cause, pipeline.ErrDeadlineExceeded)
	}
	tr.Close(reason)
	st.Abort()
	if reason != "" && !deadlined && n.cfg.FlightDir != "" {
		rec := obs.NewFlightRecord(n.name(), s.id, reason, col)
		rec.Links = tr.Stats()
		rec.Pending = world.QueueDepths()
		if path, werr := obs.WriteFlightRecordKeep(n.cfg.FlightDir, rec, n.cfg.FlightKeep); werr != nil {
			logf("stapnode: session %s: flight record: %v", s.id, werr)
		} else {
			logf("stapnode: session %s: flight record written to %s", s.id, path)
		}
	}
	logf("stapnode: session %s: ended (%s)", s.id, orDash(reason))
}

// faultPlan returns the node's parsed plan for a manifest's plan text and
// seed, parsing it the first time it is seen.
func (n *Node) faultPlan(text string, seed int64) (*fault.Plan, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := planKey{text, seed}
	if p := n.plans[key]; p != nil {
		return p, nil
	}
	p, err := fault.ParsePlan(text)
	if err != nil {
		return nil, err
	}
	n.plans[key] = p
	return p, nil
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

func orDash(s string) string {
	if s == "" {
		return "graceful"
	}
	return s
}
