package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/leakcheck"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return s
}

// serialReference processes a job with a fresh serial processor — the
// ground truth every served job must reproduce bit-exactly.
func serialReference(sc *radar.Scene, cpis []*cube.Cube) [][]stap.Detection {
	pr := stap.NewProcessor(sc)
	var out [][]stap.Detection
	for _, c := range cpis {
		out = append(out, pr.Process(c).Detections)
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
	}
	return true
}

// TestServeMatchesSerial is the end-to-end loopback test: concurrent
// clients submit independent jobs to a replicated server and every reply
// must match the serial reference for that job, regardless of which
// replica ran it or how jobs interleaved.
func TestServeMatchesSerial(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	s := startServer(t, Config{
		Scene:    sc,
		Assign:   pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
		Replicas: 2,
		Window:   2,
	})
	defer s.Shutdown(context.Background())

	const clients = 3
	const jobsPerClient = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*jobsPerClient)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl, err := Dial(s.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for ji := 0; ji < jobsPerClient; ji++ {
				n := 1 + (ci+ji)%3 // job lengths 1..3
				var cpis []*cube.Cube
				for k := 0; k < n; k++ {
					cpis = append(cpis, sc.GenerateCPI(ci*100+ji*10+k))
				}
				got, err := cl.SubmitRetry(cpis, 50)
				if err != nil {
					errs <- fmt.Errorf("client %d job %d: %w", ci, ji, err)
					return
				}
				want := serialReference(sc, cpis)
				if len(got) != len(want) {
					errs <- fmt.Errorf("client %d job %d: %d CPI reports, want %d", ci, ji, len(got), len(want))
					return
				}
				for i := range want {
					if !sameDetections(got[i], want[i]) {
						errs <- fmt.Errorf("client %d job %d CPI %d: detections differ from serial reference", ci, ji, i)
						return
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := s.Metrics().Snapshot()
	if snap.Completed != clients*jobsPerClient {
		t.Errorf("completed = %d, want %d", snap.Completed, clients*jobsPerClient)
	}
	if snap.Failed != 0 {
		t.Errorf("failed = %d, want 0", snap.Failed)
	}
	var replicaJobs int64
	for _, r := range snap.Replicas {
		replicaJobs += r.Jobs
	}
	if replicaJobs != snap.Completed {
		t.Errorf("replica jobs %d != completed %d", replicaJobs, snap.Completed)
	}
}

// TestServeBackpressure floods a Replicas=1, QueueDepth=1 server and
// requires the bounded queue to push back with StatusBusy instead of
// buffering: at least one rejection must be observed, every rejection
// must carry a retry hint, and accepted jobs must still succeed.
func TestServeBackpressure(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	s := startServer(t, Config{
		Scene:      sc,
		Assign:     pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
		Replicas:   1,
		QueueDepth: 1,
		Window:     2,
		RetryAfter: 5 * time.Millisecond,
	})
	defer s.Shutdown(context.Background())

	cpis := []*cube.Cube{sc.GenerateCPI(0), sc.GenerateCPI(1), sc.GenerateCPI(2)}
	want := serialReference(sc, cpis)

	var busy, ok int
	for round := 0; round < 20 && busy == 0; round++ {
		const burst = 8
		var wg sync.WaitGroup
		results := make(chan error, burst)
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl, err := Dial(s.Addr().String())
				if err != nil {
					results <- err
					return
				}
				defer cl.Close()
				got, err := cl.Submit(cpis)
				if err != nil {
					results <- err
					return
				}
				if !sameDetections(got[len(got)-1], want[len(want)-1]) {
					results <- errors.New("accepted job differs from serial reference")
					return
				}
				results <- nil
			}()
		}
		wg.Wait()
		close(results)
		for err := range results {
			var be *BusyError
			switch {
			case err == nil:
				ok++
			case errors.As(err, &be):
				busy++
				if be.RetryAfter <= 0 {
					t.Errorf("busy rejection without retry hint: %v", be)
				}
			default:
				t.Fatalf("unexpected error: %v", err)
			}
		}
	}
	if busy == 0 {
		t.Error("flooding a depth-1 queue never produced a busy rejection")
	}
	if ok == 0 {
		t.Error("no job was accepted during the flood")
	}
	snap := s.Metrics().Snapshot()
	if snap.Rejected != int64(busy) {
		t.Errorf("metrics rejected = %d, observed %d", snap.Rejected, busy)
	}
	if snap.Completed != int64(ok) {
		t.Errorf("metrics completed = %d, observed %d", snap.Completed, ok)
	}
}

// TestServeShutdownDrain checks the graceful path: a shutdown issued
// while jobs are in flight lets them finish (their replies arrive and
// match the reference), then every server goroutine exits.
func TestServeShutdownDrain(t *testing.T) {
	before := leakcheck.Snapshot()
	sc := radar.DefaultScene(radar.Small())
	s := startServer(t, Config{
		Scene:    sc,
		Assign:   pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
		Replicas: 2,
		Window:   2,
	})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	cpis := []*cube.Cube{sc.GenerateCPI(0), sc.GenerateCPI(1)}
	want := serialReference(sc, cpis)

	type result struct {
		dets [][]stap.Detection
		err  error
	}
	results := make(chan result, 4)
	for i := 0; i < 4; i++ {
		go func() {
			dets, err := cl.Submit(cpis)
			results <- result{dets, err}
		}()
	}
	// Let the jobs get admitted, then shut down underneath them.
	time.Sleep(20 * time.Millisecond)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	var served int
	for i := 0; i < 4; i++ {
		r := <-results
		if r.err != nil {
			continue // submitted too late: rejected or connection closed
		}
		served++
		if !sameDetections(r.dets[len(r.dets)-1], want[len(want)-1]) {
			t.Error("drained job differs from serial reference")
		}
	}
	if snap := s.Metrics().Snapshot(); int64(served) != snap.Completed {
		t.Errorf("served %d replies, metrics completed = %d", served, snap.Completed)
	}
	cl.Close()
	leakcheck.Wait(t, before)

	// The server refuses work after shutdown.
	if _, err := Dial(s.Addr().String()); err == nil {
		t.Error("dial after shutdown should fail")
	}
}

// TestServeValidation covers malformed jobs: they are answered with a
// descriptive error, not processed and not counted as completed.
func TestServeValidation(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	s := startServer(t, Config{
		Scene:  sc,
		Assign: pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
		Window: 2,
	})
	defer s.Shutdown(context.Background())
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Submit(nil); err == nil || !strings.Contains(err.Error(), "empty job") {
		t.Errorf("empty job: err = %v", err)
	}
	bad := cube.New(radar.RawOrder, 1, 1, 1)
	if _, err := cl.Submit([]*cube.Cube{bad}); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Errorf("bad shape: err = %v", err)
	}
	// Right shape, short payload: admitted, this would panic the feeder's
	// slicing and take the process down.
	short := cube.New(radar.RawOrder, sc.Params.K, sc.Params.J, sc.Params.N)
	short.Data = short.Data[:10]
	resp, err := cl.Do(&Request{CPIs: []*cube.Cube{short}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBadRequest || !strings.Contains(resp.Err, "samples") {
		t.Errorf("short payload: %s (%s), want %s naming the sample count", resp.Status, resp.Err, StatusBadRequest)
	}
	if snap := s.Metrics().Snapshot(); snap.Accepted != 0 {
		t.Errorf("invalid jobs were admitted: accepted = %d", snap.Accepted)
	}
	// The server is still up and the connection still usable.
	good := []*cube.Cube{sc.GenerateCPI(0)}
	dets, err := cl.Submit(good)
	if err != nil {
		t.Fatalf("good job after the bad ones: %v", err)
	}
	if !sameDetections(dets[0], serialReference(sc, good)[0]) {
		t.Error("good job after the bad ones differs from serial reference")
	}
}

// TestServeTraceCapture submits a traced job and checks it was served by
// the warm pool like any other job — reference-exact detections, counted
// on the replica, bound by its deadline — with the trace cut from the
// replica's span journal holding that job's CPIs and nothing else.
func TestServeTraceCapture(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	dir := t.TempDir()
	s := startServer(t, Config{
		Scene:    sc,
		Assign:   pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
		Window:   2,
		TraceDir: dir,
	})
	defer s.Shutdown(context.Background())
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	cpis := []*cube.Cube{sc.GenerateCPI(0), sc.GenerateCPI(1), sc.GenerateCPI(2)}
	resp, err := cl.Do(&Request{CPIs: cpis, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("traced job: %s (%s)", resp.Status, resp.Err)
	}
	want := serialReference(sc, cpis)
	for i := range want {
		if !sameDetections(resp.Detections[i], want[i]) {
			t.Errorf("traced job CPI %d differs from serial reference", i)
		}
	}
	if jobs := s.Metrics().Snapshot().Replicas[0].Jobs; jobs != 1 {
		t.Errorf("replica 0 served %d jobs, want the traced job (1)", jobs)
	}
	if len(s.Collectors()[0].Journal()) == 0 {
		t.Error("traced job left no spans on the warm replica's journal")
	}
	checkJobTrace(t, resp.TraceFile, len(cpis))

	// A traced job after an untraced one: the journal holds both, the
	// trace only its own CPIs, rebased to 0.
	if _, err := cl.Submit(cpis[:2]); err != nil {
		t.Fatal(err)
	}
	resp, err = cl.Do(&Request{CPIs: cpis, Trace: true})
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("second traced job: %v / %+v", err, resp)
	}
	checkJobTrace(t, resp.TraceFile, len(cpis))

	// A deadline binds a traced job exactly as it does an untraced one.
	long := make([]*cube.Cube, 12)
	for i := range long {
		long[i] = cpis[i%len(cpis)]
	}
	for _, traced := range []bool{false, true} {
		resp, err := cl.Do(&Request{CPIs: long, DeadlineMs: 1, Trace: traced})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusDeadlineExceeded {
			t.Errorf("1 ms deadline, trace=%v: %s (%s), want %s", traced, resp.Status, resp.Err, StatusDeadlineExceeded)
		}
		// The expiry recycled the replica; wait for it to serve again.
		submitRecover(t, cl, cpis[:1])
	}
}

// checkJobTrace reads a job's Chrome trace and checks it names the
// Doppler task and holds one recv/comp/send triple per worker for each of
// the job's CPIs 0..n-1 (the weight tasks may still be working on the last
// CPI when the job completes) and no other CPI.
func checkJobTrace(t *testing.T, path string, n int) {
	t.Helper()
	if path == "" {
		t.Fatal("traced job returned no trace file")
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "Doppler") {
		t.Error("trace file does not mention the Doppler task")
	}
	var tr struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Pid  int
			Args struct{ CPI int }
		}
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("trace %s: %v", path, err)
	}
	comp := map[[2]int]int{} // (task, cpi) -> comp slices
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" && ev.Name == "comp" {
			comp[[2]int{ev.Pid, ev.Args.CPI}]++
		}
		if ev.Ph == "X" && (ev.Args.CPI < 0 || ev.Args.CPI >= n) {
			t.Fatalf("trace %s holds a slice of CPI %d, want only 0..%d", path, ev.Args.CPI, n-1)
		}
	}
	for task := 0; task < pipeline.NumTasks; task++ {
		for cpi := 0; cpi < n; cpi++ {
			weight := task == pipeline.TaskEasyWeight || task == pipeline.TaskHardWeight
			if got := comp[[2]int{task, cpi}]; got > 1 || (got == 0 && !(weight && cpi == n-1)) {
				t.Errorf("trace %s: task %d CPI %d has %d comp slices, want 1", path, task, cpi, got)
			}
		}
	}
}

// TestMetricsHandler scrapes the JSON endpoint the way cmd/stapload does.
func TestMetricsHandler(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	s := startServer(t, Config{
		Scene:  sc,
		Assign: pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1),
		Window: 2,
	})
	defer s.Shutdown(context.Background())
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Submit([]*cube.Cube{sc.GenerateCPI(0)}); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	s.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, key := range []string{"queue_depth", "accepted", "completed", "latency_p95_ms", "replicas", "utilization"} {
		if !strings.Contains(body, key) {
			t.Errorf("metrics JSON missing %q:\n%s", key, body)
		}
	}
	if !strings.Contains(body, `"completed": 1`) {
		t.Errorf("metrics JSON should report 1 completed job:\n%s", body)
	}
}
