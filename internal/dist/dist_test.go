package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/fault"
	"pstap/internal/leakcheck"
	"pstap/internal/mp"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/stap"
	"pstap/internal/wire"
)

var testSecret = []byte("cluster-secret-for-tests")

// startNodes launches n stapnode agents on loopback and returns them with
// their dial addresses. Cleanup closes them gracefully.
func startNodes(t *testing.T, n int) ([]*Node, []string) {
	t.Helper()
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		node := NewNode(ln, NodeConfig{Secret: testSecret, Logf: t.Logf})
		nodes[i] = node
		addrs[i] = ln.Addr().String()
		go node.Serve()
		t.Cleanup(node.Close)
	}
	return nodes, addrs
}

// testCluster is the canonical 2-node split: Doppler and the weight tasks
// on node 1, beamforming through CFAR on node 2.
func testCluster(t *testing.T, addrs []string, sc *radar.Scene) ClusterConfig {
	t.Helper()
	placement := DefaultPlacement(len(addrs))
	if len(addrs) == 2 {
		var err error
		if placement, err = ParsePlacement("0-2/3-6", 2); err != nil {
			t.Fatal(err)
		}
	}
	return ClusterConfig{
		Name:       "test",
		Nodes:      addrs,
		Placement:  placement,
		Secret:     testSecret,
		Scene:      sc,
		Assign:     pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1),
		CPITimeout: 30 * time.Second,
		Heartbeat:  100 * time.Millisecond,
		Logf:       t.Logf,
	}
}

// connectRetry absorbs the window where a node's previous session is
// still tearing down (it answers "node busy" until it finishes).
func connectRetry(t *testing.T, cfg ClusterConfig) *Replica {
	t.Helper()
	var last error
	for i := 0; i < 50; i++ {
		rep, err := cfg.Connect()
		if err == nil {
			return rep
		}
		last = err
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("Connect: %v", last)
	return nil
}

func runSerial(sc *radar.Scene, n int) [][]stap.Detection {
	pr := stap.NewProcessor(sc)
	out := make([][]stap.Detection, n)
	for i := 0; i < n; i++ {
		out[i] = pr.Process(sc.GenerateCPI(i)).Detections
	}
	return out
}

func sameDetections(a, b []stap.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Range != b[i].Range || a[i].DopplerBin != b[i].DopplerBin || a[i].Beam != b[i].Beam {
			return false
		}
		if math.Abs(a[i].Power-b[i].Power) > 1e-9*(1+math.Abs(b[i].Power)) {
			return false
		}
	}
	return true
}

func makeJob(sc *radar.Scene, n int) []*cube.Cube {
	cpis := make([]*cube.Cube, n)
	for i := range cpis {
		cpis[i] = sc.GenerateCPI(i)
	}
	return cpis
}

// TestSplitReplicaBitExact is the tentpole acceptance test: one replica
// split across two node processes (in-process agents here, real processes
// in the e2e smoke test) must reproduce the serial reference exactly,
// job after job, with zero changes to the worker bodies.
func TestSplitReplicaBitExact(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	_, addrs := startNodes(t, 2)
	cfg := testCluster(t, addrs, sc)

	rep, err := cfg.Connect()
	if err != nil {
		t.Fatal(err)
	}
	// A malformed cube is refused before it reaches the feeder or the
	// wire; the replica stays up for the jobs below.
	if _, err := rep.ProcessJob([]*cube.Cube{cube.New(radar.RawOrder, 2, 2, 2)}); err == nil {
		t.Fatal("malformed job accepted")
	}
	n := 5
	want := runSerial(sc, n)
	for job := 0; job < 2; job++ {
		dets, err := rep.ProcessJob(makeJob(sc, n))
		if err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		for i := range want {
			if !sameDetections(dets[i], want[i]) {
				t.Errorf("job %d CPI %d: dist %v != serial %v", job, i, dets[i], want[i])
			}
		}
	}
	for _, ls := range rep.LinkStats() {
		if ls.MsgsSent == 0 && ls.MsgsRecv == 0 {
			t.Errorf("link to member %d moved no messages", ls.Member)
		}
	}
	rep.Close()

	// The nodes return to listening: a second session on the same agents
	// must work — the recycle path of the serving layer.
	rep2 := connectRetry(t, cfg)
	dets, err := rep2.ProcessJob(makeJob(sc, n))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !sameDetections(dets[i], want[i]) {
			t.Errorf("second session CPI %d: dist %v != serial %v", i, dets[i], want[i])
		}
	}
	rep2.Close()
}

// TestThreeWaySplit spreads the tasks over three nodes.
func TestThreeWaySplit(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	_, addrs := startNodes(t, 3)
	cfg := testCluster(t, addrs, sc)
	placement, err := ParsePlacement("0/1-4/5-6", 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Placement = placement

	rep, err := cfg.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	n := 3
	want := runSerial(sc, n)
	dets, err := rep.ProcessJob(makeJob(sc, n))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !sameDetections(dets[i], want[i]) {
			t.Errorf("CPI %d: dist %v != serial %v", i, dets[i], want[i])
		}
	}
}

// TestNodeKillReplicaLost kills one node mid-job: ProcessJob must return
// a typed *ReplicaLostError (wrapping a *LinkError) within the CPI
// watchdog deadline, and the survivors must unwind cleanly.
func TestNodeKillReplicaLost(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	nodes, addrs := startNodes(t, 2)
	cfg := testCluster(t, addrs, sc)
	cfg.CPITimeout = 10 * time.Second

	rep, err := cfg.Connect()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Abort)

	// Kill once the job is in steady state, while its caller is held at
	// CPI 10: the job cannot finish before the kill however fast it runs.
	reached, killed := make(chan struct{}), make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := rep.ProcessJobOpts(makeJob(sc, 200), pipeline.JobOpts{OnCPI: func(cpi int, _ []stap.Detection) {
			if cpi == 10 {
				close(reached)
				<-killed
			}
		}})
		errc <- err
	}()
	select {
	case <-reached:
	case err := <-errc:
		t.Fatalf("job ended before CPI 10: %v", err)
	}
	nodes[1].Kill()
	close(killed)

	select {
	case err := <-errc:
		var rl *ReplicaLostError
		if !errors.As(err, &rl) {
			t.Fatalf("ProcessJob = %v, want *ReplicaLostError", err)
		}
		var le *LinkError
		if !errors.As(rl.Cause, &le) {
			t.Fatalf("cause = %v, want *LinkError", rl.Cause)
		}
	case <-time.After(cfg.CPITimeout + 5*time.Second):
		t.Fatal("ProcessJob did not return after node kill")
	}
}

// TestDropLinkChaos arms a droplink rule on the coordinator's links: the
// injected wire failure must surface as a ReplicaLost wrapping the typed
// fault.ErrLinkDropped.
func TestDropLinkChaos(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	_, addrs := startNodes(t, 2)
	cfg := testCluster(t, addrs, sc)
	cfg.Fault = fault.MustParsePlan("link:1:3:droplink").Injector(7)

	rep, err := cfg.Connect()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Abort)

	_, err = rep.ProcessJob(makeJob(sc, 50))
	var rl *ReplicaLostError
	if !errors.As(err, &rl) {
		t.Fatalf("ProcessJob = %v, want *ReplicaLostError", err)
	}
	if !errors.Is(err, fault.ErrLinkDropped) {
		t.Fatalf("cause chain %v does not include fault.ErrLinkDropped", err)
	}
}

// TestRemoteWorkerFaultRelayed arms a worker panic on a node through the
// manifest's fault plan: the node's goodbye must carry the fault, and the
// coordinator must surface it as a replica loss naming it.
func TestRemoteWorkerFaultRelayed(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	_, addrs := startNodes(t, 2)
	cfg := testCluster(t, addrs, sc)
	cfg.FaultPlan = "doppler:0:2:panic"
	cfg.Seed = 3

	rep, err := cfg.Connect()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Abort)

	_, err = rep.ProcessJob(makeJob(sc, 50))
	var rl *ReplicaLostError
	if !errors.As(err, &rl) {
		t.Fatalf("ProcessJob = %v, want *ReplicaLostError, got %v", err, err)
	}
}

// TestOnceRuleSpentAcrossSessions re-Connects to the same nodes with the
// same once-only fault plan: the rule must fire exactly once in the
// node's lifetime — the first session dies of it, the replacement
// session completes the same job — as it does for in-process replicas
// sharing one parsed plan.
func TestOnceRuleSpentAcrossSessions(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	_, addrs := startNodes(t, 2)
	cfg := testCluster(t, addrs, sc)
	cfg.FaultPlan = "pulse:0:2:panic"
	cfg.Seed = 3
	cpis := makeJob(sc, 6)
	want := runSerial(sc, len(cpis))

	first := connectRetry(t, cfg)
	t.Cleanup(first.Abort)
	var rl *ReplicaLostError
	if _, err := first.ProcessJob(cpis); !errors.As(err, &rl) {
		t.Fatalf("first session ProcessJob = %v, want *ReplicaLostError", err)
	}
	first.Abort()

	for session := 2; session <= 3; session++ {
		rep := connectRetry(t, cfg)
		t.Cleanup(rep.Abort)
		got, err := rep.ProcessJob(cpis)
		if err != nil {
			t.Fatalf("session %d: the spent rule fired again: %v", session, err)
		}
		for i := range want {
			if !sameDetections(got[i], want[i]) {
				t.Errorf("session %d CPI %d differs from serial reference", session, i)
			}
		}
		rep.Close()
	}
}

// TestBadSecretRejected: a coordinator with the wrong secret must not get
// a session.
func TestBadSecretRejected(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	_, addrs := startNodes(t, 2)
	cfg := testCluster(t, addrs, sc)
	cfg.Secret = []byte("wrong")

	if _, err := cfg.Connect(); err == nil {
		t.Fatal("Connect with wrong secret succeeded")
	}
}

// TestHelloCheckedBeforeDecoding: a node refuses what it cannot trust
// before it parses it. A first frame that is not a hello, or that claims
// more than maxHelloBytes, is refused on its header alone — the node
// hangs up without waiting for the body; a hello whose MAC is wrong is
// refused without its manifest bytes being decoded, however much garbage
// they hold. The same node then serves a real session bit-exact.
func TestHelloCheckedBeforeDecoding(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var logMu sync.Mutex
	var logs []string
	node := NewNode(ln, NodeConfig{Secret: testSecret, Logf: func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
		t.Logf(format, args...)
	}})
	go node.Serve()
	t.Cleanup(node.Close)
	refusedWith := func(want string) bool {
		logMu.Lock()
		defer logMu.Unlock()
		for _, l := range logs {
			if strings.Contains(l, want) {
				return true
			}
		}
		return false
	}
	// send writes b and reports whether the node hung up within a second,
	// well before the hello timeout that a wait for more bytes would run
	// into.
	send := func(b []byte) bool {
		t.Helper()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		go conn.Write(b)
		conn.SetReadDeadline(time.Now().Add(time.Second))
		_, err = conn.Read(make([]byte, 1))
		var ne net.Error
		return err != nil && !(errors.As(err, &ne) && ne.Timeout())
	}
	header := func(kind frameKind, n uint32) []byte {
		h := []byte{wire.FormatVersion, byte(kind), 0, 0, 0, 0}
		binary.BigEndian.PutUint32(h[2:], n)
		return h
	}

	// Headers alone, their bodies never sent.
	if !send(header(framePing, 16)) {
		t.Error("a first frame of kind ping was not refused on its header")
	}
	if !send(header(frameHello, maxHelloBytes+1)) {
		t.Error("a hello longer than maxHelloBytes was not refused on its header")
	}
	// A control: a hello header within the bound is waited on for its body.
	if send(header(frameHello, 64)) {
		t.Fatal("the node hung up on a hello header within the bound; the probes above prove nothing")
	}

	// A coordinator hello with a wrong MAC over 1 MiB of garbage is refused
	// on its length; under the bound, the same garbage is refused on its
	// MAC — neither reaches the manifest decoder.
	garbage := bytes.Repeat([]byte{0xff, 0x00, 0x7f, 0x80}, 1<<18) // 1 MiB
	for _, n := range []int{len(garbage), maxHelloBytes / 2} {
		var b bytes.Buffer
		writeFrame(&b, &frame{Kind: frameHello, Session: "s", To: 1, Manifest: garbage[:n], Auth: make([]byte, 32)})
		if !send(b.Bytes()) {
			t.Errorf("hello with a wrong MAC over %d bytes of garbage was not refused", n)
		}
	}
	if !refusedWith(fmt.Sprintf("want a hello of at most %d", maxHelloBytes)) {
		t.Error("no refusal on the hello's length was logged")
	}
	if !refusedWith("manifest signature does not verify") {
		t.Error("no refusal on the hello's MAC was logged")
	}
	if refusedWith("decode signed manifest") {
		t.Error("an unauthenticated manifest reached the decoder")
	}

	sc := radar.DefaultScene(radar.Small())
	cfg := testCluster(t, []string{ln.Addr().String()}, sc)
	rep := connectRetry(t, cfg)
	defer rep.Close()
	want := runSerial(sc, 3)
	dets, err := rep.ProcessJob(makeJob(sc, len(want)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !sameDetections(dets[i], want[i]) {
			t.Errorf("CPI %d: dist %v != serial %v", i, dets[i], want[i])
		}
	}
}

// TestCrossProcessBarrier runs an all-pairs Send/Recv exchange across a
// coordinator and two node transports wired over loopback, generation
// after generation: every rank sends to every other rank and receives
// from each of them, so every member↔member link carries traffic both
// ways. Payloads are nil, so only (src, tag) routing delivers them: a
// message routed to the wrong rank or tag leaves its receiver parked.
func TestCrossProcessBarrier(t *testing.T) {
	leakcheck.Check(t)
	// World of 5 ranks: member 0 hosts rank 4, member 1 ranks 0-1,
	// member 2 ranks 2-3.
	owners := []int{1, 1, 2, 2, 0}
	mk := func(self int) *Transport {
		return newTransport(self, 2, owners, 0, nil) // no heartbeat in this harness
	}
	t0, t1, t2 := mk(0), mk(1), mk(2)
	trans := map[int]*Transport{0: t0, 1: t1, 2: t2}
	bind := func(tr *Transport, first, n int) *mp.World {
		w := mp.NewPartialWorld(5, mp.Group{First: first, N: n}, tr)
		tr.world = w
		return w
	}
	worlds := []*mp.World{bind(t0, 4, 1), bind(t1, 0, 2), bind(t2, 2, 2)}
	connect := func(a, b int) {
		ca, cb := tcpPair(t)
		trans[a].runLink(b, "pair", ca)
		trans[b].runLink(a, "pair", cb)
	}
	connect(0, 1)
	connect(0, 2)
	connect(1, 2)
	t.Cleanup(func() { t0.Close(""); t1.Close(""); t2.Close("") })

	const ranks, gens = 5, 3
	done := make(chan int, ranks*gens)
	exchange := func(w *mp.World, rank int) {
		c := w.Comm(rank)
		for g := 0; g < gens; g++ {
			for dst := 0; dst < ranks; dst++ {
				if dst != rank {
					c.Send(dst, g, nil)
				}
			}
			for src := 0; src < ranks; src++ {
				if src != rank {
					c.Recv(src, g)
				}
			}
			done <- g
		}
	}
	for r := 0; r < ranks; r++ {
		go exchange(worlds[owners[r]], r)
	}

	counts := make(map[int]int)
	deadline := time.After(10 * time.Second)
	for i := 0; i < ranks*gens; i++ {
		select {
		case g := <-done:
			counts[g]++
		case <-deadline:
			t.Fatalf("exchange stuck: generations done per rank %v", counts)
		}
	}
	for m, w := range worlds {
		if w.Aborted() {
			t.Errorf("member %d's world aborted: %v", m, w.AbortCause())
		}
		for r, d := range w.QueueDepths() {
			if d > 0 {
				t.Errorf("member %d: rank %d holds %d unreceived messages", m, r, d)
			}
		}
	}
}

// tcpPair returns two ends of one loopback TCP connection.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	return a, r.c
}

// readFrame reads one link frame from r the way a link's reader does: the
// kind from the header, then the body into a frame of that kind.
func readFrame(r io.Reader) (frame, error) {
	fr := wire.NewReader(r)
	k, _, err := fr.Next()
	f := frame{Kind: frameKind(k)}
	if err == nil {
		_, err = fr.Decode(&f)
	}
	return f, err
}

// TestOtherBuildRefusedAtHello: every frame starts with the wire format
// version, so a peer of another build — the next format version or the
// previous one — is refused at the hello with both versions named, in
// both directions — never a mis-decode.
func TestOtherBuildRefusedAtHello(t *testing.T) {
	leakcheck.Check(t)
	for _, delta := range []int{+1, -1} {
		other := byte(int(wire.FormatVersion) + delta)
		// A fake node answering the coordinator's hello with one of the
		// other format version.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		served := make(chan struct{})
		go func() {
			defer close(served)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			hello, err := readFrame(conn)
			if err != nil || hello.Kind != frameHello || len(hello.Manifest) == 0 {
				t.Errorf("coordinator hello: %+v, %v", hello.Kind, err)
			}
			var b bytes.Buffer
			writeFrame(&b, &frame{Kind: frameHello, Session: hello.Session, From: 1})
			b.Bytes()[0] = other // the format version byte
			conn.Write(b.Bytes())
			io.Copy(io.Discard, conn) // until the coordinator hangs up
		}()
		cfg := testCluster(t, []string{ln.Addr().String()}, radar.DefaultScene(radar.Small()))
		if _, err := cfg.Connect(); err == nil || !strings.Contains(err.Error(), "format version") {
			t.Fatalf("Connect to a node of format version %d = %v, want an error naming the format versions", other, err)
		}
		<-served
	}

	// A real node answers a hello of another version with a goodbye in its
	// own, whose reason names both. The hello is a whole frame, body and
	// all — the node reads only its header — and the goodbye must still
	// arrive, followed by a clean close.
	_, addrs := startNodes(t, 1)
	for _, delta := range []int{+1, -1} {
		other := byte(int(wire.FormatVersion) + delta)
		conn, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var hello bytes.Buffer
		// A body larger than the socket buffers.
		writeFrame(&hello, &frame{Kind: frameHello, Session: "s", From: 2, To: 1, Auth: make([]byte, 1<<20)})
		hello.Bytes()[0] = other // the format version byte
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			conn.Write(hello.Bytes())
		}()
		bye, err := readFrame(conn)
		if err != nil || bye.Kind != frameGoodbye ||
			!strings.Contains(bye.Reason, fmt.Sprintf("format version %d, this build speaks format version %d", other, wire.FormatVersion)) {
			t.Fatalf("node's answer to format version %d: %+v, %v; want a goodbye naming both versions", other, bye, err)
		}
		if _, err := readFrame(conn); err != io.EOF {
			t.Errorf("after the goodbye: %v, want the connection closed (io.EOF)", err)
		}
		conn.Close()
		<-sent
	}
}
