package pipeline

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/leakcheck"
	"pstap/internal/obs"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

func TestRunContextCancelMidStream(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := Run(Config{
			Scene:   sc,
			Assign:  NewAssignment(2, 1, 2, 1, 1, 2, 1),
			NumCPIs: 500, // far more than can finish before the cancel
			Window:  2,
			Context: ctx,
		})
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the pipeline reach steady state
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("cancelled run returned nil error")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return")
	}
}

func TestRunContextAlreadyDone(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(Config{
		Scene:   sc,
		Assign:  NewAssignment(1, 1, 1, 1, 1, 1, 1),
		NumCPIs: 3,
		Context: ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStreamJobsMatchSerial verifies the serving contract: every job
// processed by a warm Stream yields detections bit-identical to a fresh
// serial reference run over that job's cubes, regardless of the jobs
// processed before it.
func TestStreamJobsMatchSerial(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	st, err := NewStream(StreamConfig{Scene: sc, Assign: NewAssignment(2, 1, 2, 1, 1, 2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Three jobs of different lengths drawn from different parts of the
	// scene's CPI stream (so their data differs).
	jobs := [][]*cube.Cube{}
	next := 0
	for _, n := range []int{3, 1, 4} {
		job := make([]*cube.Cube, n)
		for i := range job {
			job[i] = sc.GenerateCPI(next)
			next++
		}
		jobs = append(jobs, job)
	}
	for j, job := range jobs {
		got, err := st.ProcessJob(job)
		if err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
		pr := stap.NewProcessor(sc)
		for i, raw := range job {
			want := pr.Process(raw).Detections
			if !sameDetections(got[i], want) {
				t.Errorf("job %d CPI %d: stream %v != serial %v", j, i, got[i], want)
			}
		}
	}
	if n := st.CPIsProcessed(); n != 8 {
		t.Errorf("CPIsProcessed = %d, want 8", n)
	}
}

func TestStreamCloseAndAbortStopGoroutines(t *testing.T) {
	before := leakcheck.Snapshot()
	sc := radar.DefaultScene(radar.Small())

	st, err := NewStream(StreamConfig{Scene: sc, Assign: NewAssignment(1, 1, 1, 1, 1, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ProcessJob([]*cube.Cube{sc.GenerateCPI(0)}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	leakcheck.Wait(t, before)
	if _, err := st.ProcessJob([]*cube.Cube{sc.GenerateCPI(1)}); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("ProcessJob after Close: err = %v, want ErrStreamClosed", err)
	}

	st2, err := NewStream(StreamConfig{Scene: sc, Assign: NewAssignment(1, 1, 1, 1, 1, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	st2.Abort()
	leakcheck.Wait(t, before)
	if _, err := st2.ProcessJob([]*cube.Cube{sc.GenerateCPI(2)}); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("ProcessJob after Abort: err = %v, want ErrStreamClosed", err)
	}
}

// TestRunIsOneJobOnAStream pins the executor seam: Run over N CPIs and
// NewStream + ProcessJob + Close over the same cubes produce identical
// detections and identical world traffic (Run ends like every stream
// does: last weights shipped, one EOF per edge), and Result's traffic
// totals are the collector's.
func TestRunIsOneJobOnAStream(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	a := NewAssignment(2, 1, 2, 1, 1, 2, 1)
	const n = 5
	cubes := job(sc, 0, n)

	runCol := obs.New(DefaultObsConfig(a))
	res, err := Run(Config{Scene: sc, Assign: a, NumCPIs: n, Obs: runCol,
		RawSource: func(i int) *cube.Cube { return cubes[i] }})
	if err != nil {
		t.Fatal(err)
	}
	stCol := obs.New(DefaultObsConfig(a))
	st, err := NewStream(StreamConfig{Scene: sc, Assign: a, Obs: stCol})
	if err != nil {
		t.Fatal(err)
	}
	dets, err := st.ProcessJob(cubes)
	st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Detections, dets) {
		t.Error("Run and ProcessJob detections differ")
	}
	if res.Messages != runCol.Messages() || res.BytesSent != runCol.Bytes() {
		t.Errorf("Result traffic %d msgs / %d B, collector %d / %d",
			res.Messages, res.BytesSent, runCol.Messages(), runCol.Bytes())
	}
	if res.Messages != stCol.Messages() || res.BytesSent != stCol.Bytes() {
		t.Errorf("Run traffic %d msgs / %d B, stream %d / %d",
			res.Messages, res.BytesSent, stCol.Messages(), stCol.Bytes())
	}
}

// TestProcessJobRejectsMalformedCube pins the input check: a job holding
// a cube of the wrong shape is refused before any of it is submitted —
// the feeder would otherwise panic slicing it — and the same stream then
// serves the next job bit-exactly.
func TestProcessJobRejectsMalformedCube(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	st, err := NewStream(StreamConfig{Scene: sc, Assign: NewAssignment(2, 1, 2, 1, 1, 2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	bad := []*cube.Cube{sc.GenerateCPI(0), cube.New(radar.RawOrder, 2, 2, 2)}
	if _, err := st.ProcessJob(bad); err == nil || !strings.Contains(err.Error(), "CPI 1") {
		t.Fatalf("malformed job: err = %v, want a shape error naming CPI 1", err)
	}
	if n := st.CPIsProcessed(); n != 0 {
		t.Fatalf("refused job processed %d CPIs", n)
	}

	good := job(sc, 1, 2)
	got, err := st.ProcessJob(good)
	if err != nil {
		t.Fatalf("job after the refused one: %v", err)
	}
	pr := stap.NewProcessor(sc)
	for i, raw := range good {
		if want := pr.Process(raw).Detections; !sameDetections(got[i], want) {
			t.Errorf("CPI %d: stream %v != serial %v", i, got[i], want)
		}
	}
}

// TestRunMalformedSourceIsDriverFault: Run's source is not shape-checked
// up front, so a bad cube reaches the feeder; supervision turns its panic
// into a driver FaultError instead of a dead process.
func TestRunMalformedSourceIsDriverFault(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	_, err := Run(Config{
		Scene:     sc,
		Assign:    NewAssignment(1, 1, 1, 1, 1, 1, 1),
		NumCPIs:   3,
		RawSource: func(int) *cube.Cube { return cube.New(radar.RawOrder, 2, 2, 2) },
	})
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Fault.Task != DriverTask || fe.Fault.Worker != driverFeeder {
		t.Fatalf("err = %v, want a feeder FaultError", err)
	}
	if !strings.HasPrefix(fe.Fault.String(), "driver[0] cpi 0: ") {
		t.Errorf("fault renders as %q", fe.Fault)
	}
}

// TestRunPanickingSourceIsDriverFault: Run's RawSource is the caller's
// code, called from the job's submitter goroutine; a panic in it is a
// driver FaultError naming the submitter and the CPI, not a dead process.
func TestRunPanickingSourceIsDriverFault(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	_, err := Run(Config{
		Scene:   sc,
		Assign:  NewAssignment(1, 1, 1, 1, 1, 1, 1),
		NumCPIs: 6,
		RawSource: func(i int) *cube.Cube {
			if i == 3 {
				panic("source ran dry")
			}
			return sc.GenerateCPI(i)
		},
	})
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Fault.Task != DriverTask || fe.Fault.Worker != driverSubmitter || fe.Fault.CPI != 3 {
		t.Fatalf("err = %v, want a submitter FaultError at CPI 3", err)
	}
	if fe.Fault.Cause != "source ran dry" {
		t.Errorf("fault cause %q", fe.Fault.Cause)
	}
}
