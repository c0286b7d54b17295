package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/dist"
	"pstap/internal/leakcheck"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
)

// refuseFirst is a listener that hangs up on the first connection it
// accepts: a node that refuses the first hello it is sent.
type refuseFirst struct {
	net.Listener
	refused atomic.Bool
}

func (l *refuseFirst) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil || l.refused.Swap(true) {
			return c, err
		}
		c.Close()
	}
}

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// hitSurfaces drives every reader of the slots' records that a scrape, a
// tick or a fault reaches, and fails on a non-200 endpoint.
func hitSurfaces(t *testing.T, s *Server) {
	t.Helper()
	for path, h := range map[string]http.Handler{
		"/metrics":            s.Metrics().Handler(),
		"/metrics.prom":       s.PromHandler(),
		"/trace.json":         s.TraceHandler(),
		"/cluster/trace.json": s.ClusterTraceHandler(),
		"/history.json":       s.HistoryHandler(),
		"/bottlenecks.json":   s.BottlenecksHandler(),
		"/plan":               s.PlanHandler(),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d", path, rec.Code)
		}
	}
	s.sampleOnce(time.Now())
	s.pollNodes()
	s.flightRecord(s.slots[0], errors.New("probe"))
	if wait := s.queueWait(1, 1); wait < 0 {
		t.Errorf("queueWait = %v", wait)
	}
}

// TestSlotStartUnreachableFallsBack: a cluster whose node is unreachable
// at the start does not fail New. Its slot spends its restart budget on
// the start like on any rebuild, falls back in-process under
// FallbackInproc, and serves bit-exact jobs.
func TestSlotStartUnreachableFallsBack(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	s := startServer(t, Config{
		Scene:  sc,
		Assign: pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
		DistClusters: []dist.ClusterConfig{{
			Name: "c0", Nodes: []string{deadAddr(t)}, Secret: []byte("slot-start-secret"),
		}},
		Window:         2,
		RetryAfter:     5 * time.Millisecond,
		RestartBudget:  1,
		RestartBackoff: 5 * time.Millisecond,
		FallbackInproc: true,
	})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	cpis := []*cube.Cube{sc.GenerateCPI(0), sc.GenerateCPI(1)}
	want := serialReference(sc, cpis)
	got := submitRecover(t, cl, cpis)
	for i := range want {
		if !sameDetections(got[i], want[i]) {
			t.Fatalf("CPI %d: fallback detections differ from serial reference", i)
		}
	}
	r := s.Metrics().Snapshot().Replicas[0]
	if r.Health != "live" || !r.Fallback || r.Restarts != 2 {
		t.Errorf("slot = %+v, want live in-process fallback after 2 charged attempts", r)
	}
}

// TestSlotStartRefusedFirstHello: without fallback, a node that refuses
// only the first hello leaves the server serving with its one slot
// restarting. A request meanwhile is refused busy with the slot's next
// attempt as its retry-after, every surface reads the slot without a
// replica, and the next attempt brings the slot live to serve bit-exact
// jobs.
func TestSlotStartRefusedFirstHello(t *testing.T) {
	leakcheck.Check(t)
	secret := []byte("slot-start-secret")
	sc := radar.DefaultScene(radar.Small())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := dist.NewNode(&refuseFirst{Listener: ln}, dist.NodeConfig{Secret: secret, Logf: t.Logf})
	go node.Serve()
	t.Cleanup(node.Close)

	const backoff = 400 * time.Millisecond
	s := startServer(t, Config{
		Scene:  sc,
		Assign: pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
		DistClusters: []dist.ClusterConfig{{
			Name: "c0", Nodes: []string{ln.Addr().String()}, Secret: secret, Heartbeat: 50 * time.Millisecond,
		}},
		Window:         2,
		CPITimeout:     20 * time.Second,
		RetryAfter:     5 * time.Millisecond,
		RestartBudget:  3,
		RestartBackoff: backoff,
		FlightDir:      t.TempDir(),
	})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	if r := s.Metrics().Snapshot().Replicas[0]; r.Health != "restarting" || r.Restarts != 0 {
		t.Fatalf("after a refused first hello the slot is %+v, want restarting with nothing charged", r)
	}

	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cpis := []*cube.Cube{sc.GenerateCPI(0), sc.GenerateCPI(1)}
	resp, err := cl.Do(&Request{CPIs: cpis})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBusy || !strings.Contains(resp.Err, "restarting") {
		t.Fatalf("request while the only slot restarts: status %v (%s), want busy", resp.Status, resp.Err)
	}
	if ra := time.Duration(resp.RetryAfterMs) * time.Millisecond; ra <= 5*time.Millisecond || ra > backoff {
		t.Errorf("retry-after %v, want the next attempt, within (5ms, %v]", ra, backoff)
	}

	hitSurfaces(t, s)
	if h := s.Metrics().Snapshot().Replicas[0].Health; h != "restarting" {
		t.Fatalf("slot went %s before the surfaces were read; lengthen the backoff", h)
	}

	want := serialReference(sc, cpis)
	got := submitRecover(t, cl, cpis)
	for i := range want {
		if !sameDetections(got[i], want[i]) {
			t.Fatalf("CPI %d: detections differ from serial reference", i)
		}
	}
	if r := s.Metrics().Snapshot().Replicas[0]; r.Health != "live" || r.Fallback || r.Restarts != 1 {
		t.Errorf("slot = %+v, want live on its cluster after 1 charged attempt", r)
	}
}

// TestSlotStartNeverLiveShutdown: a server whose only slot never comes
// live reads and shuts down, softly and hard, without a replica. A soft
// shutdown does not wait out the slot's restart backoff: a slot never
// live has no admitted job to finish.
func TestSlotStartNeverLiveShutdown(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	for _, hard := range []bool{false, true} {
		name := "soft"
		if hard {
			name = "hard"
		}
		t.Run(name, func(t *testing.T) {
			leakcheck.Check(t)
			s := startServer(t, Config{
				Scene:  sc,
				Assign: pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
				DistClusters: []dist.ClusterConfig{{
					Name: "c0", Nodes: []string{deadAddr(t)}, Secret: []byte("slot-start-secret"),
				}},
				RestartBudget:  3,
				RestartBackoff: time.Hour,
			})
			hitSurfaces(t, s)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if hard {
				cancel()
			}
			err := s.Shutdown(ctx)
			if hard != (err != nil) {
				t.Errorf("Shutdown = %v", err)
			}
			if h := s.Metrics().Snapshot().Replicas[0].Health; h != "dead" {
				t.Errorf("slot %s after shutdown, want dead", h)
			}
		})
	}
}
