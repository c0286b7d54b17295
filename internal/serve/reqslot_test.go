package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/dist"
	"pstap/internal/fault"
	"pstap/internal/leakcheck"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/stap"
	"pstap/internal/wire"
)

// Request-slot lifecycle tests: the pool is the admission bound, a
// refused request holds nothing, and a slot's cubes are reused only once
// no replica incarnation can read them.

// slotGauges reads the two request-slot rows off the Prometheus
// exposition.
func slotGauges(t *testing.T, s *Server) (capacity, inUse float64) {
	t.Helper()
	var buf bytes.Buffer
	s.WritePrometheus(&buf)
	capacity, ok1 := promValue(buf.String(), "stapd_request_slots", nil)
	inUse, ok2 := promValue(buf.String(), "stapd_request_slots_in_use", nil)
	if !ok1 || !ok2 {
		t.Fatal("request slot gauges missing from /metrics.prom")
	}
	return capacity, inUse
}

// waitFor polls cond until it holds or 10 s pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// freeList snapshots the pool's free list.
func (p *requestSlots) freeList() []*requestSlot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.free)
}

// bitExact reports whether two jobs' reports are identical, every field
// of every detection included.
func bitExact(got, want [][]stap.Detection) bool {
	return slices.EqualFunc(got, want, func(a, b []stap.Detection) bool { return slices.Equal(a, b) })
}

// TestSlotLifeRequestPoolFill fills the queue and both replicas: the pool
// then holds exactly its bound, QueueDepth + replicas, and the next
// request is Busy at its header with the in-use gauge unchanged. Once the
// jobs drain, every slot is back on the free list.
func TestSlotLifeRequestPoolFill(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	leakcheck.Check(t)
	s := startServer(t, Config{
		Scene:      sc,
		Assign:     pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
		Replicas:   2,
		QueueDepth: 2,
		Window:     2,
		RetryAfter: 5 * time.Millisecond,
		// Every CPI is slow, so the fill holds still while it is looked at.
		FaultPlan: fault.MustParsePlan("doppler:0:*:slow(300ms)*"),
	})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if c, u := slotGauges(t, s); c != 4 || u != 0 {
		t.Fatalf("idle pool: %v slots, %v in use; want 4, 0", c, u)
	}
	var jobs [][]*cube.Cube
	for i := 0; i < 4; i++ {
		jobs = append(jobs, []*cube.Cube{sc.GenerateCPI(i)})
	}
	var wg sync.WaitGroup
	for i, cpis := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := cl.Submit(cpis)
			if err != nil {
				t.Errorf("fill job %d: %v", i, err)
				return
			}
			if !bitExact(got, serialReference(sc, cpis)) {
				t.Errorf("fill job %d differs from the serial reference", i)
			}
		}()
		if i < 2 {
			// Let a replica take it, so the two behind it queue.
			waitFor(t, "a replica to pull the job", func() bool { return len(s.queue) == 0 && s.reqs.inUse() == i+1 })
		}
	}
	waitFor(t, "the queue to fill", func() bool { return len(s.queue) == 2 && s.reqs.inUse() == 4 })
	_, before := slotGauges(t, s)

	resp, err := cl.Do(&Request{CPIs: []*cube.Cube{sc.GenerateCPI(9)}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBusy || resp.RetryAfterMs <= 0 || !strings.Contains(resp.Err, "request slot") {
		t.Fatalf("request beyond the bound: %s %q retry %d ms; want busy on the pool with a retry hint", resp.Status, resp.Err, resp.RetryAfterMs)
	}
	if _, after := slotGauges(t, s); before != 4 || after != before {
		t.Errorf("in use %v before the busy request, %v after; want 4 both", before, after)
	}

	wg.Wait()
	waitFor(t, "the slots to come back", func() bool { return s.reqs.inUse() == 0 })
	if len(s.reqs.freeList()) != 4 {
		t.Errorf("%d slots on the free list after clean jobs, want 4", len(s.reqs.freeList()))
	}
}

// TestSlotLifeRefusedHoldsNothing refuses requests every way short of a
// replica — bad shape, a deadline blown in the queue, a truncated body —
// and requires each to hold nothing afterwards: the in-use gauge is back
// at zero and the refused slots are free for reuse, not lost.
func TestSlotLifeRefusedHoldsNothing(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	leakcheck.Check(t)
	s := startServer(t, Config{
		Scene:      sc,
		Assign:     pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
		Replicas:   1,
		QueueDepth: 4,
		Window:     2,
		RetryAfter: 5 * time.Millisecond,
		FaultPlan:  fault.MustParsePlan("doppler:0:0:slow(300ms)"),
	})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	resp, err := cl.Do(&Request{CPIs: []*cube.Cube{cube.New(radar.RawOrder, 1, 1, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBadRequest {
		t.Fatalf("wrong-shape job: %s, want bad-request", resp.Status)
	}
	if _, u := slotGauges(t, s); u != 0 {
		t.Errorf("%v slots in use after a bad request, want 0", u)
	}

	// A job blown in the queue: the replica is busy with a slow one.
	blocker := make(chan error, 1)
	go func() {
		_, err := cl.Submit([]*cube.Cube{sc.GenerateCPI(0)})
		blocker <- err
	}()
	waitFor(t, "the replica to pull the slow job", func() bool { return len(s.queue) == 0 && s.reqs.inUse() == 1 })
	resp, err = cl.Do(&Request{CPIs: []*cube.Cube{sc.GenerateCPI(1)}, DeadlineMs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusDeadlineExceeded {
		t.Fatalf("1 ms job: %s, want deadline-exceeded", resp.Status)
	}
	if err := <-blocker; err != nil {
		t.Fatalf("slow job: %v", err)
	}

	// A body cut short: the client's side ends, the server hangs up, and
	// the slot has gone back by then.
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{wire.FormatVersion, byte(wire.Plain), 0, 0, 4, 0, 1, 2, 3})
	conn.(*net.TCPConn).CloseWrite()
	io.Copy(io.Discard, conn)
	conn.Close()

	waitFor(t, "every slot to come back", func() bool { return s.reqs.inUse() == 0 && len(s.reqs.freeList()) == 2 })
	if _, u := slotGauges(t, s); u != 0 {
		t.Errorf("%v slots in use after the refusals, want 0", u)
	}
}

// TestSlotLifeFailoverReplaysSlot kills the replica under a job: the job
// keeps its slot through the failover, the other replica replays it from
// the slot's cubes, and the reply is bit-exact with stap.Processor. The
// slot is then retired — the dead incarnation may have read its cubes
// after the hand-off — so the next job decodes into a fresh one.
func TestSlotLifeFailoverReplaysSlot(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	leakcheck.Check(t)
	s := startServer(t, Config{
		Scene:          sc,
		Assign:         pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
		Replicas:       2,
		QueueDepth:     2,
		Window:         2,
		RetryAfter:     5 * time.Millisecond,
		RestartBackoff: 5 * time.Millisecond,
		// Stream CPI 2 is the poisoned job's on either replica: the warm
		// job before it is one CPI long.
		FaultPlan: fault.MustParsePlan("doppler:0:2:panic"),
	})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	warm := []*cube.Cube{sc.GenerateCPI(7)}
	if _, err := cl.Submit(warm); err != nil {
		t.Fatal(err)
	}
	if len(s.reqs.freeList()) != 1 {
		t.Fatalf("%d free slots after one clean job, want 1", len(s.reqs.freeList()))
	}
	first := s.reqs.freeList()[0]

	var cpis []*cube.Cube
	for i := 0; i < 4; i++ {
		cpis = append(cpis, sc.GenerateCPI(i))
	}
	got, err := cl.Submit(cpis)
	if err != nil {
		t.Fatalf("poisoned job should have failed over: %v", err)
	}
	if !bitExact(got, serialReference(sc, cpis)) {
		t.Error("failed-over job differs from the serial reference")
	}
	if snap := s.Metrics().Snapshot(); snap.Failovers != 1 || snap.Failed != 0 {
		t.Errorf("failovers %d, failed %d; want 1, 0", snap.Failovers, snap.Failed)
	}
	if u := s.reqs.inUse(); u != 0 || len(s.reqs.freeList()) != 0 {
		t.Errorf("after the failover: %d in use, %d free; want the slot retired (0, 0)", u, len(s.reqs.freeList()))
	}

	if _, err := cl.Submit(warm); err != nil {
		t.Fatal(err)
	}
	if len(s.reqs.freeList()) != 1 || s.reqs.freeList()[0] == first {
		t.Error("the next job did not decode into a fresh slot")
	}
}

// TestSlotLifeTimeoutRetiresSlot times a job out while the coordinator of
// its distributed replica is still sending its cube: a slowlink rule
// holds the first raw frame until the watchdog aborts the world, and the
// woken sender then encodes the whole 2 MB Medium cube. The timed-out
// job's slot must be retired, not freed. New requests follow at once —
// encoded beforehand, so they are decoded while that encode runs — and
// take fresh slots. Had the slot been freed, a follow-up would decode
// into the cube the dead incarnation is still reading: a data race that
// -race reports whenever the decode overtakes the encode. The follow-up
// jobs match the serial reference.
func TestSlotLifeTimeoutRetiresSlot(t *testing.T) {
	sc := radar.DefaultScene(radar.Medium())
	leakcheck.Check(t)
	secret := []byte("slot-timeout-secret")
	node1, addr1 := startDistNode(t, secret, "127.0.0.1:0")
	node2, addr2 := startDistNode(t, secret, "127.0.0.1:0")
	t.Cleanup(func() { node1.Close(); node2.Close() })
	placement, err := dist.ParsePlacement("0-2/3-6", 2)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{
		Scene:  sc,
		Assign: pipeline.NewAssignment(1, 1, 2, 1, 1, 2, 1),
		DistClusters: []dist.ClusterConfig{{
			Name:         "c0",
			Nodes:        []string{addr1, addr2},
			Placement:    placement,
			Secret:       secret,
			ReadyTimeout: 10 * time.Second,
			// The coordinator's first raw frame to member 1 (the Doppler
			// node): all of CPI 0, one Doppler worker's slab.
			Fault: fault.MustParsePlan("link:1:0:slowlink(60s)").Injector(1),
		}},
		QueueDepth:     4,
		Window:         2,
		CPITimeout:     3 * time.Second,
		RetryAfter:     5 * time.Millisecond,
		RestartBackoff: 5 * time.Millisecond,
	})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var follow [2][]*cube.Cube
	var frames [2][]byte
	for k := range follow {
		follow[k] = []*cube.Cube{sc.GenerateCPI(10 + k)}
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, &Request{ID: uint64(k), CPIs: follow[k]}); err != nil {
			t.Fatal(err)
		}
		frames[k] = buf.Bytes()
	}

	_, err = cl.Submit([]*cube.Cube{sc.GenerateCPI(0), sc.GenerateCPI(1)})
	var je *JobError
	if !errors.As(err, &je) || je.Code != StatusTimeout {
		t.Fatalf("held job: %v, want a timeout", err)
	}
	if u, f := s.reqs.inUse(), len(s.reqs.freeList()); u != 0 || f != 0 {
		t.Errorf("timed-out job's slot: %d in use, %d free; want it retired (0, 0)", u, f)
	}
	for _, b := range frames {
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	fr := wire.NewReader(conn)
	for done := 0; done < len(follow); {
		var resp Response
		if _, err := fr.ReadFrame(&resp); err != nil {
			t.Fatal(err)
		}
		switch {
		case resp.ID >= uint64(len(follow)):
			t.Fatalf("reply for unknown job %d", resp.ID)
		case resp.Status == StatusBusy:
			// The replica is still rebuilding: resend after the hint.
			time.Sleep(time.Duration(resp.RetryAfterMs) * time.Millisecond)
			if _, err := conn.Write(frames[resp.ID]); err != nil {
				t.Fatal(err)
			}
		case resp.Status != StatusOK:
			t.Fatalf("follow-up job %d: %s %s", resp.ID, resp.Status, resp.Err)
		default:
			if !bitExact(resp.Detections, serialReference(sc, follow[resp.ID])) {
				t.Errorf("follow-up job %d differs from the serial reference", resp.ID)
			}
			done++
		}
	}
	waitFor(t, "the slots to come back", func() bool { return s.reqs.inUse() == 0 })
}
