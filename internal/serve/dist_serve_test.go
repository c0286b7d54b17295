package serve

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/dist"
	"pstap/internal/leakcheck"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
)

// startDistNode launches one in-process stapnode agent and returns it
// with its dial address.
func startDistNode(t *testing.T, secret []byte, addr string) (*dist.Node, string) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	node := dist.NewNode(ln, dist.NodeConfig{Secret: secret, Logf: t.Logf})
	go node.Serve()
	return node, ln.Addr().String()
}

// TestServeDistributedSlot pools one distributed replica (two stapnode
// agents) with zero in-process ones: served jobs must match the serial
// reference; killing a node must surface StatusReplicaLost; and once a
// replacement agent is listening on the same address, the slot's restart
// loop must re-Connect and serve again.
func TestServeDistributedSlot(t *testing.T) {
	leakcheck.Check(t)
	secret := []byte("serve-dist-secret")
	sc := radar.DefaultScene(radar.Small())
	node1, addr1 := startDistNode(t, secret, "127.0.0.1:0")
	node2, addr2 := startDistNode(t, secret, "127.0.0.1:0")
	t.Cleanup(func() { node1.Close(); node2.Close() })
	placement, err := dist.ParsePlacement("0-2/3-6", 2)
	if err != nil {
		t.Fatal(err)
	}

	s := startServer(t, Config{
		Scene:  sc,
		Assign: pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1),
		DistClusters: []dist.ClusterConfig{{
			Name:      "c0",
			Nodes:     []string{addr1, addr2},
			Placement: placement,
			Secret:    secret,
			Heartbeat: 50 * time.Millisecond,
		}},
		CPITimeout:     20 * time.Second,
		RetryAfter:     5 * time.Millisecond,
		RestartBudget:  50,
		RestartBackoff: 10 * time.Millisecond,
	})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	if got := len(s.slots); got != 1 {
		t.Fatalf("pool has %d slots, want 1 (distributed only)", got)
	}

	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var cpis []*cube.Cube
	for i := 0; i < 3; i++ {
		cpis = append(cpis, sc.GenerateCPI(i))
	}
	want := serialReference(sc, cpis)
	got, err := cl.SubmitRetry(cpis, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !sameDetections(got[i], want[i]) {
			t.Fatalf("CPI %d: distributed detections differ from serial reference", i)
		}
	}

	// The slot's per-link counters must surface in the JSON snapshot.
	snap := s.Metrics().Snapshot()
	if len(snap.Replicas) != 1 || len(snap.Replicas[0].Links) == 0 {
		t.Fatalf("snapshot has no link stats: %+v", snap.Replicas)
	}

	// Kill a node mid-pool. The next job fails with replica loss (or a
	// busy reply while the slot restarts), then a replacement agent on
	// the same address lets the recycle loop bring the slot back.
	node2.Kill()
	_, err = cl.Submit(cpis)
	var je *JobError
	var be *BusyError
	switch {
	case errors.As(err, &je):
		if je.Code != StatusReplicaLost && je.Code != StatusTimeout && je.Code != StatusError {
			t.Fatalf("post-kill status = %v", je.Code)
		}
	case errors.As(err, &be):
		// The kill won the race: admission already saw zero live replicas.
	case err == nil:
		t.Fatal("job succeeded on a killed cluster")
	default:
		t.Fatalf("post-kill error: %v", err)
	}

	var node2b *dist.Node
	for i := 0; ; i++ {
		ln, lerr := net.Listen("tcp", addr2)
		if lerr == nil {
			node2b = dist.NewNode(ln, dist.NodeConfig{Secret: secret, Logf: t.Logf})
			go node2b.Serve()
			break
		}
		if i > 100 {
			t.Fatalf("rebind %s: %v", addr2, lerr)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Cleanup(node2b.Close)

	got = submitRecover(t, cl, cpis)
	for i := range want {
		if !sameDetections(got[i], want[i]) {
			t.Fatalf("post-recovery CPI %d: detections differ from serial reference", i)
		}
	}
	if s.Metrics().Snapshot().ReplicaRestarts == 0 {
		t.Error("no replica restart recorded after node loss")
	}
}
