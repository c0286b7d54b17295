package dist

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"pstap/internal/leakcheck"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
)

// TestGoodbyeWhileWiringFailsConnect: a node that says an orderly goodbye
// before it reports ready ends Connect at once, with the link's typed
// LinkError, instead of leaving it to wait out DefaultReadyTimeout.
func TestGoodbyeWhileWiringFailsConnect(t *testing.T) {
	leakcheck.Check(t)
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
		if hello, err := readFrame(conn); err != nil || hello.Kind != frameHello {
			t.Errorf("coordinator hello: %+v, %v", hello.Kind, err)
			return
		}
		writeFrame(conn, &frame{Kind: frameGoodbye}) // an empty reason: orderly
		io.Copy(io.Discard, conn)                    // until the coordinator hangs up
	}()
	cfg := testCluster(t, []string{ln.Addr().String()}, radar.DefaultScene(radar.Small()))
	start := time.Now()
	_, err = cfg.Connect()
	took := time.Since(start)
	var le *LinkError
	if !errors.As(err, &le) || le.Member != 1 {
		t.Fatalf("Connect to a node that said goodbye = %v, want a *LinkError for member 1", err)
	}
	if took > time.Second {
		t.Fatalf("Connect returned %v after the node's goodbye, want within 1s", took)
	}
	<-served
}

// TestDeadlineEndsNodeSessions: a dist job whose deadline passes returns
// pipeline.ErrDeadlineExceeded, and aborting the replica, as the serving
// layer's rebuild does, ends every node's session through the goodbye:
// within 500 ms, where the heartbeat alone would take 3 s.
func TestDeadlineEndsNodeSessions(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	nodes, addrs := startNodes(t, 2)
	cfg := testCluster(t, addrs, sc)
	cfg.Heartbeat = time.Second
	cfg.FaultPlan = "cfar:*:*:slow(50ms)*"

	rep, err := cfg.Connect()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Abort)
	ended := make([]chan struct{}, len(nodes))
	for i, n := range nodes {
		n.mu.Lock()
		s := n.sess
		n.mu.Unlock()
		if s == nil {
			t.Fatalf("node %d has no session after Connect", i+1)
		}
		ended[i] = s.done
	}

	_, err = rep.ProcessJobOpts(makeJob(sc, 20), pipeline.JobOpts{Deadline: time.Now().Add(150 * time.Millisecond)})
	if !errors.Is(err, pipeline.ErrDeadlineExceeded) {
		t.Fatalf("ProcessJobOpts = %v, want pipeline.ErrDeadlineExceeded", err)
	}
	start := time.Now()
	rep.Abort()
	limit := time.After(500 * time.Millisecond)
	for i, done := range ended {
		select {
		case <-done:
		case <-limit:
			t.Fatalf("node %d's session still runs %v after the replica was aborted", i+1, time.Since(start))
		}
	}
	t.Logf("every node's session ended %v after the abort", time.Since(start))
}
