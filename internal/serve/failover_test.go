package serve

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/dist"
	"pstap/internal/leakcheck"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

// Failover tests: a replica that dies mid-job must not lose the job.
// The server replays the job's input journal on another live replica,
// splices in the per-CPI results the dead attempt already delivered,
// and answers bit-exact — the client never learns a replica died. No
// flight record is written for the handed-off failure (the job
// survived; there is nothing to black-box).

// failoverPool starts a two-replica pool — slot 0 an in-process
// pipeline, slot 1 a distributed replica over two stapnode agents —
// with the flight recorder armed on a temp dir. It returns the server,
// the node pair and the flight dir.
func failoverPool(t *testing.T, sc *radar.Scene, nodeFaults string) (*Server, [2]*dist.Node, string) {
	t.Helper()
	leakcheck.Check(t)
	secret := []byte("failover-test-secret")
	node1, addr1 := startDistNode(t, secret, "127.0.0.1:0")
	node2, addr2 := startDistNode(t, secret, "127.0.0.1:0")
	t.Cleanup(func() { node1.Close(); node2.Close() })
	placement, err := dist.ParsePlacement("0-2/3-6", 2)
	if err != nil {
		t.Fatal(err)
	}
	flightDir := t.TempDir()
	s := startServer(t, Config{
		Scene:    sc,
		Assign:   pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1),
		Replicas: 1,
		DistClusters: []dist.ClusterConfig{{
			Name:      "c0",
			Nodes:     []string{addr1, addr2},
			Placement: placement,
			Secret:    secret,
			Heartbeat: 200 * time.Millisecond,
			FaultPlan: nodeFaults,
			Seed:      1,
		}},
		QueueDepth:     4,
		CPITimeout:     20 * time.Second,
		RetryAfter:     5 * time.Millisecond,
		RestartBudget:  2,
		RestartBackoff: 5 * time.Millisecond,
		FailoverBudget: 2,
		FlightDir:      flightDir,
	})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s, [2]*dist.Node{node1, node2}, flightDir
}

// occupyInproc submits cpis in the background and blocks until slot 0's
// in-process pipeline is visibly computing it, so the next submission
// deterministically lands on the distributed slot (the only idle one).
// The returned channel delivers the job's response.
func occupyInproc(t *testing.T, s *Server, cl *Client, cpis []*cube.Cube) <-chan [][]stap.Detection {
	t.Helper()
	done := make(chan [][]stap.Detection, 1)
	go func() {
		dets, err := cl.Submit(cpis)
		if err != nil {
			t.Errorf("in-process occupier job: %v", err)
		}
		done <- dets
	}()
	col := s.Collectors()[0]
	deadline := time.Now().Add(10 * time.Second)
	for len(col.Journal()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-process replica never started the occupier job")
		}
		time.Sleep(time.Millisecond)
	}
	return done
}

// assertNoFlightRecords fails when the flight recorder dumped anything:
// a job that was successfully handed to failover is not a black-box
// event.
func assertNoFlightRecords(t *testing.T, dir string) {
	t.Helper()
	recs, err := filepath.Glob(filepath.Join(dir, "flightrec-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("flight records written for failed-over jobs: %v", recs)
	}
}

// TestFailoverNodeKillMidJob kills a stapnode out from under a running
// job: the job must fail over to the in-process replica and come back
// StatusOK and bit-exact, the failover counter must tick, and no flight
// record may be written (the handoff succeeded).
func TestFailoverNodeKillMidJob(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	s, nodes, flightDir := failoverPool(t, sc, "")

	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var cpis []*cube.Cube
	for i := 0; i < 200; i++ {
		cpis = append(cpis, sc.GenerateCPI(i%8))
	}
	want := serialReference(sc, cpis)

	// Pin the in-process replica, then land the victim job on the
	// distributed slot and wait until frames are actually flowing.
	occupied := occupyInproc(t, s, cl, cpis)
	distSent := func() int64 {
		var n int64
		for _, l := range s.Metrics().Snapshot().Replicas[1].Links {
			n += l.MsgsSent
		}
		return n
	}
	base := distSent()
	victim := make(chan [][]stap.Detection, 1)
	go func() {
		dets, verr := cl.Submit(cpis)
		if verr != nil {
			t.Errorf("victim job after node kill: %v", verr)
		}
		victim <- dets
	}()
	deadline := time.Now().Add(10 * time.Second)
	for distSent() < base+5 {
		if time.Now().After(deadline) {
			t.Fatal("victim job never started flowing on the distributed slot")
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the second node mid-job. The distributed replica dies with
	// ReplicaLost; the job must be re-dispatched, not failed.
	nodes[1].Kill()

	for i, got := range [][][]stap.Detection{<-occupied, <-victim} {
		if got == nil {
			continue // error already reported
		}
		for c := range want {
			if !sameDetections(got[c], want[c]) {
				t.Fatalf("job %d CPI %d differs from serial reference after failover", i, c)
			}
		}
	}

	snap := s.Metrics().Snapshot()
	if snap.Failovers < 1 {
		t.Errorf("job_failovers = %d, want >= 1", snap.Failovers)
	}
	if snap.Completed != 2 || snap.Failed != 0 {
		t.Errorf("completed/failed = %d/%d, want 2/0", snap.Completed, snap.Failed)
	}
	assertNoFlightRecords(t, flightDir)
}

// TestFailoverSplicesDeliveredPrefix injects a remote worker panic at
// CPI 2 of a six-CPI job: the distributed attempt delivers CPIs 0-1
// before dying, the in-process replica replays the input journal from
// CPI 0 (re-priming the adaptive-weight lineage), and the spliced reply
// must be bit-exact with a never-failed run.
func TestFailoverSplicesDeliveredPrefix(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	s, _, flightDir := failoverPool(t, sc, "pulse:0:2:panic")

	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var filler, cpis []*cube.Cube
	for i := 0; i < 60; i++ {
		filler = append(filler, sc.GenerateCPI(i%8))
	}
	for i := 0; i < 6; i++ {
		cpis = append(cpis, sc.GenerateCPI(i))
	}
	want := serialReference(sc, cpis)

	occupied := occupyInproc(t, s, cl, filler)
	got, err := cl.Submit(cpis)
	if err != nil {
		t.Fatalf("poisoned job should have failed over, got %v", err)
	}
	<-occupied
	for i := range want {
		if !sameDetections(got[i], want[i]) {
			t.Errorf("CPI %d: spliced detections differ from serial reference", i)
		}
	}

	snap := s.Metrics().Snapshot()
	if snap.Failovers != 1 {
		t.Errorf("job_failovers = %d, want 1", snap.Failovers)
	}
	if snap.Failed != 0 {
		t.Errorf("failed = %d, want 0 (the client must never see the loss)", snap.Failed)
	}
	assertNoFlightRecords(t, flightDir)
}
