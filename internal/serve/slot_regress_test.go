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
			Heartbeat: 50 * time.Millisecond, ReadyTimeout: 5 * time.Second,
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

	// Take slot 1's node away and roll the slot: it sits in restarting,
	// failing to reconnect.
	node2.Kill()
	rolled := make(chan struct{})
	go func() {
		defer close(rolled)
		s.rollSlot(s.slots[1], "0-2/3-6", placement)
	}()
	waitReplica(t, s, 1, "restarting", func(r ReplicaSnapshot) bool { return r.Health == "restarting" })

	// Slot 0's next fault is its last. (Slot 1's loop may take one job
	// first and fail it on the rolled-away stream.)
	for i := 0; s.Metrics().Snapshot().Replicas[0].Health != "dead"; i++ {
		if _, err := cl.Submit(job); err == nil || i > 100 {
			t.Fatalf("submit %d with no healthy replica: err = %v", i, err)
		}
	}
	if h := s.Metrics().Snapshot().Replicas[1].Health; h != "restarting" {
		t.Fatalf("slot 1 is %s, want restarting while slot 0 died", h)
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
	<-rolled
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
