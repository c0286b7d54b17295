package serve

import (
	"context"
	"net"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/dist"
	"pstap/internal/fault"
	"pstap/internal/leakcheck"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
)

// waitReplica polls the snapshot until the replica's row satisfies ok.
func waitReplica(t *testing.T, s *Server, idx int, what string, ok func(ReplicaSnapshot) bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !ok(s.Metrics().Snapshot().Replicas[idx]) {
		if time.Now().After(deadline) {
			t.Fatalf("replica %d never became %s: %+v", idx, what, s.Metrics().Snapshot().Replicas[idx])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSlotLifeDeadSiblingDoesNotDrain: a slot that dies for good while
// its sibling is merely restarting must not stay behind as the pool
// drainer — once the sibling is back, every job is the sibling's to
// serve, none the dead slot's to fail with "no live replicas".
func TestSlotLifeDeadSiblingDoesNotDrain(t *testing.T) {
	leakcheck.Check(t)
	secret := []byte("slot-life-secret")
	sc := radar.DefaultScene(radar.Small())
	node1, addr1 := startDistNode(t, secret, "127.0.0.1:0")
	node2, addr2 := startDistNode(t, secret, "127.0.0.1:0")
	t.Cleanup(func() { node1.Close(); node2.Close() })
	placement, err := dist.ParsePlacement("0-2/3-6", 2)
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0 is in-process and panics on every CPI (the server's fault
	// plan reaches in-process replicas only); slot 1 is distributed and
	// healthy. A budget of 1 means slot 0 survives one fault and dies on
	// the second, and gives slot 1 one backoff to find its node again.
	s := startServer(t, Config{
		Scene:    sc,
		Assign:   pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
		Replicas: 1,
		DistClusters: []dist.ClusterConfig{{
			Name: "c0", Nodes: []string{addr1, addr2}, Placement: placement, Secret: secret,
			Heartbeat: 50 * time.Millisecond,
		}},
		Window:           2,
		CPITimeout:       20 * time.Second,
		RetryAfter:       5 * time.Millisecond,
		FaultPlan:        fault.MustParsePlan("doppler:0:*:panic*"),
		RestartBudget:    1,
		RestartBackoff:   time.Second,
		BreakerThreshold: 100,
	})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	job := []*cube.Cube{sc.GenerateCPI(0)}

	// Spend slot 0's budget: the job it takes panics, fails over to slot 1
	// and is answered OK; slot 0 restarts once.
	for s.Metrics().Snapshot().Replicas[0].Restarts == 0 {
		if _, err := cl.Submit(job); err != nil {
			t.Fatalf("job with a live sibling to fail over to: %v", err)
		}
		waitReplica(t, s, 0, "live", func(r ReplicaSnapshot) bool { return r.Health == "live" })
	}

	// Take slot 1's node away and roll the slot: the roll returns at once
	// with the slot restarting, and its loop fails to reconnect. Once the
	// loop has taken the roll's wake it pulls no job until it is rebuilt,
	// so no job runs on the rolled-away session.
	node2.Kill()
	jobs1 := s.Metrics().Snapshot().Replicas[1].Jobs
	s.rollSlot(s.slots[1], "0-2/3-6", placement)
	if h := s.Metrics().Snapshot().Replicas[1].Health; h != "restarting" {
		t.Fatalf("slot 1 is %s after the roll returned, want restarting", h)
	}
	for len(s.slots[1].wake) > 0 {
		time.Sleep(time.Millisecond)
	}

	// Slot 0's next fault is its last.
	for i := 0; s.Metrics().Snapshot().Replicas[0].Health != "dead"; i++ {
		if _, err := cl.Submit(job); err == nil || i > 100 {
			t.Fatalf("submit %d with no healthy replica: err = %v", i, err)
		}
	}
	if r := s.Metrics().Snapshot().Replicas[1]; r.Health != "restarting" || r.Jobs != jobs1 {
		t.Fatalf("slot 1 is %s with %d jobs run since the roll, want restarting with none", r.Health, r.Jobs-jobs1)
	}

	// The node comes back on its address; the roll's next attempt connects.
	var node2b *dist.Node
	for i := 0; node2b == nil; i++ {
		ln, lerr := net.Listen("tcp", addr2)
		if lerr != nil {
			if i > 100 {
				t.Fatalf("rebind %s: %v", addr2, lerr)
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		node2b = dist.NewNode(ln, dist.NodeConfig{Secret: secret, Logf: t.Logf})
		go node2b.Serve()
	}
	t.Cleanup(node2b.Close)
	waitReplica(t, s, 1, "live", func(r ReplicaSnapshot) bool { return r.Health == "live" })

	// One live replica: every job is served, whoever else is dead.
	for i := 0; i < 20; i++ {
		if _, err := cl.SubmitRetry(job, 5); err != nil {
			t.Fatalf("job %d with slot 1 live: %v", i, err)
		}
	}
	if snap := s.Metrics().Snapshot(); snap.LiveReplicas != 1 || snap.Replicas[0].Health != "dead" {
		t.Errorf("pool ended at %d live, slot 0 %s; want 1 live, slot 0 dead", snap.LiveReplicas, snap.Replicas[0].Health)
	}
}

// TestSlotLifeIdleRoll: a roll of an idle slot wakes its loop, which
// rebuilds the slot onto the new placement with no job to pull.
func TestSlotLifeIdleRoll(t *testing.T) {
	leakcheck.Check(t)
	secret := []byte("slot-life-secret")
	sc := radar.DefaultScene(radar.Small())
	node1, addr1 := startDistNode(t, secret, "127.0.0.1:0")
	node2, addr2 := startDistNode(t, secret, "127.0.0.1:0")
	t.Cleanup(func() { node1.Close(); node2.Close() })
	from, err := dist.ParsePlacement("0-2/3-6", 2)
	if err != nil {
		t.Fatal(err)
	}
	to, err := dist.ParsePlacement("0-3/4-6", 2)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{
		Scene:  sc,
		Assign: pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
		DistClusters: []dist.ClusterConfig{{
			Name: "c0", Nodes: []string{addr1, addr2}, Placement: from, Secret: secret,
			Heartbeat: 50 * time.Millisecond,
		}},
		Window:         2,
		RetryAfter:     5 * time.Millisecond,
		RestartBackoff: 10 * time.Millisecond,
	})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	if h := s.Metrics().Snapshot().Replicas[0].Health; h != "live" {
		t.Fatalf("slot is %s after New, want live", h)
	}

	s.rollSlot(s.slots[0], from.String(), to)
	if h := s.Metrics().Snapshot().Replicas[0].Health; h != "restarting" {
		t.Fatalf("slot is %s after the roll returned, want restarting", h)
	}
	waitReplica(t, s, 0, "live", func(r ReplicaSnapshot) bool { return r.Health == "live" })
	snap := s.Metrics().Snapshot()
	if snap.Replans != 1 || snap.Replicas[0].Jobs != 0 {
		t.Errorf("after an idle roll: replans %d, jobs %d; want 1, 0", snap.Replans, snap.Replicas[0].Jobs)
	}
	if got := s.slotPlacement(s.slots[0]).String(); got != to.String() {
		t.Errorf("slot placement %s after the roll, want %s", got, to)
	}

	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cpis := []*cube.Cube{sc.GenerateCPI(0), sc.GenerateCPI(1)}
	want := serialReference(sc, cpis)
	got, err := cl.Submit(cpis)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !sameDetections(got[i], want[i]) {
			t.Fatalf("CPI %d: rolled slot's detections differ from serial reference", i)
		}
	}
}

// TestSlotLifeRollEndsPark: a roll of a slot parked behind an open
// breaker ends the park: the loop rebuilds the slot at once, not after
// the cooldown. The slot is cluster-bound but serves in-process (its
// cluster is unreachable, and FallbackInproc), so the server's fault
// plan reaches it and opens its breaker.
func TestSlotLifeRollEndsPark(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	placement, err := dist.ParsePlacement("0-6", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{
		Scene:  sc,
		Assign: pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
		DistClusters: []dist.ClusterConfig{{
			Name: "c0", Nodes: []string{deadAddr(t)}, Placement: placement, Secret: []byte("slot-life-secret"),
		}},
		Window:           2,
		RetryAfter:       5 * time.Millisecond,
		FaultPlan:        fault.MustParsePlan("doppler:0:0:panic"),
		RestartBudget:    3,
		RestartBackoff:   5 * time.Millisecond,
		FallbackInproc:   true,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
	})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	waitReplica(t, s, 0, "live in-process", func(r ReplicaSnapshot) bool { return r.Health == "live" })
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Submit([]*cube.Cube{sc.GenerateCPI(0)}); err == nil {
		t.Fatal("poisoned job succeeded")
	}
	waitReplica(t, s, 0, "live behind an open breaker", func(r ReplicaSnapshot) bool {
		return r.Health == "live" && r.Breaker == "open"
	})
	lives := s.Metrics().Snapshot().Replicas[0].moves[phaseLive]

	start := time.Now()
	s.rollSlot(s.slots[0], placement.String(), placement)
	waitReplica(t, s, 0, "rebuilt after the roll", func(r ReplicaSnapshot) bool {
		return r.Health == "live" && r.moves[phaseLive] > lives
	})
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("rolled slot came back after %v behind a 1m breaker cooldown", took)
	}
}

// TestSlotLifeParkedShutdown: a slot parked behind an open breaker must
// not make graceful shutdown wait out the cooldown — with nothing queued
// its loop exits, with a job queued that job is the probe, taken now.
func TestSlotLifeParkedShutdown(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	for _, queued := range []bool{false, true} {
		name := "idle"
		if queued {
			name = "queued"
		}
		t.Run(name, func(t *testing.T) {
			leakcheck.Check(t)
			s := startServer(t, Config{
				Scene:            sc,
				Assign:           pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
				Replicas:         1,
				Window:           2,
				RetryAfter:       5 * time.Millisecond,
				FaultPlan:        fault.MustParsePlan("doppler:0:0:panic"),
				RestartBudget:    3,
				RestartBackoff:   5 * time.Millisecond,
				BreakerThreshold: 1,
				BreakerCooldown:  30 * time.Second,
			})
			t.Cleanup(func() { s.Shutdown(context.Background()) })
			cl, err := Dial(s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.Submit([]*cube.Cube{sc.GenerateCPI(0)}); err == nil {
				t.Fatal("poisoned job succeeded")
			}
			waitReplica(t, s, 0, "live behind an open breaker", func(r ReplicaSnapshot) bool {
				return r.Health == "live" && r.Breaker == "open"
			})

			probe := make(chan error, 1)
			if queued {
				go func() {
					_, err := cl.Submit([]*cube.Cube{sc.GenerateCPI(1)})
					probe <- err
				}()
				for s.Metrics().Snapshot().QueueDepth == 0 {
					time.Sleep(time.Millisecond)
				}
			}

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			start := time.Now()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown with nothing in flight: %v", err)
			}
			if took := time.Since(start); took > 2*time.Second {
				t.Errorf("Shutdown took %v behind a 30s breaker cooldown", took)
			}
			if queued {
				if err := <-probe; err != nil {
					t.Errorf("job queued behind the parked slot: %v", err)
				}
			}
		})
	}
}
