package pipeline

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/fault"
	"pstap/internal/leakcheck"
	"pstap/internal/radar"
)

func job(sc *radar.Scene, from, n int) []*cube.Cube {
	out := make([]*cube.Cube, n)
	for i := range out {
		out[i] = sc.GenerateCPI(from + i)
	}
	return out
}

// TestFaultRunPanicSupervised drives an injected worker panic through a
// batch Run: supervision must convert it into a typed FaultError naming
// the dead worker, with every goroutine reaped.
func TestFaultRunPanicSupervised(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	inj := fault.MustParsePlan("cfar:0:1:panic").Injector(1)
	_, err := Run(Config{
		Scene:   sc,
		Assign:  NewAssignment(1, 1, 1, 1, 1, 1, 1),
		NumCPIs: 3,
		Fault:   inj,
	})
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("Run = %v, want *FaultError", err)
	}
	if fe.Fault.Task != TaskCFAR || fe.Fault.Worker != 0 || fe.Fault.CPI != 1 {
		t.Errorf("fault = %+v, want CFAR worker 0 at cpi 1", fe.Fault)
	}
}

// TestFaultStreamWorkerFault checks a warm Stream survives a worker panic
// as a process: ProcessJob reports the FaultError, Faults exposes it, and
// teardown leaks nothing.
func TestFaultStreamWorkerFault(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	inj := fault.MustParsePlan("hardweight:0:0:panic").Injector(1)
	st, err := NewStream(StreamConfig{Scene: sc, Assign: NewAssignment(1, 1, 1, 1, 1, 1, 1), Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Abort)
	_, err = st.ProcessJob(job(sc, 0, 2))
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("ProcessJob = %v, want *FaultError", err)
	}
	if fe.Fault.Task != TaskHardWeight {
		t.Errorf("fault = %+v, want hard weight worker", fe.Fault)
	}
	if fs := st.Faults(); len(fs) == 0 {
		t.Error("Faults() is empty after a worker fault")
	}
	// The dead instance keeps reporting the fault, not a generic close.
	if _, err := st.ProcessJob(job(sc, 2, 1)); !errors.As(err, &fe) {
		t.Errorf("second ProcessJob = %v, want *FaultError", err)
	}
}

// TestFaultStreamFiresUnderItsJob checks where a compute fault for CPI 0
// fires: once CPI 0's inputs arrive, under the job that submitted it. A
// stream armed with one records no fault while no job has fed it, and
// its first job is the one that fails, naming CPI 0.
func TestFaultStreamFiresUnderItsJob(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	inj := fault.MustParsePlan("doppler:0:0:panic").Injector(1)
	st, err := NewStream(StreamConfig{Scene: sc, Assign: NewAssignment(1, 1, 1, 1, 1, 1, 1), Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Abort)
	time.Sleep(100 * time.Millisecond) // time enough for a fault at birth to be recorded
	if fs := st.Faults(); len(fs) != 0 {
		t.Fatalf("idle stream recorded %v before any CPI was submitted", fs)
	}
	_, err = st.ProcessJob(job(sc, 0, 2))
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("first job = %v, want *FaultError", err)
	}
	if fe.Fault.Task != TaskDoppler || fe.Fault.Worker != 0 || fe.Fault.CPI != 0 {
		t.Errorf("fault = %+v, want Doppler worker 0 at cpi 0", fe.Fault)
	}
}

// TestFaultStreamDropPayload checks the message-plane fault path: a
// dropped payload panics the receiver's type assertion, which supervision
// attributes to the receiving worker.
func TestFaultStreamDropPayload(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	inj := fault.MustParsePlan("easybf:0:1:droppayload").Injector(1)
	st, err := NewStream(StreamConfig{Scene: sc, Assign: NewAssignment(1, 1, 1, 1, 1, 1, 1), Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Abort)
	_, err = st.ProcessJob(job(sc, 0, 3))
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("ProcessJob = %v, want *FaultError", err)
	}
	if fe.Fault.Task != TaskEasyBF {
		t.Errorf("fault = %+v, want easy BF worker", fe.Fault)
	}
}

// TestFaultStreamWatchdogHang checks the per-CPI deadline: an injected
// hang never produces a result, the watchdog aborts the world (reaping
// the hung worker via the bound done channel) and ProcessJob returns
// ErrCPITimeout.
func TestFaultStreamWatchdogHang(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	inj := fault.MustParsePlan("pulse:0:0:hang").Injector(1)
	st, err := NewStream(StreamConfig{
		Scene:      sc,
		Assign:     NewAssignment(1, 1, 1, 1, 1, 1, 1),
		CPITimeout: 200 * time.Millisecond,
		Fault:      inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Abort)
	if _, err := st.ProcessJob(job(sc, 0, 1)); !errors.Is(err, ErrCPITimeout) {
		t.Fatalf("ProcessJob = %v, want ErrCPITimeout", err)
	}
}

// TestStreamCloseAbortConcurrent hammers Close and Abort from several
// goroutines while a ProcessJob is in flight: both must be idempotent and
// safe together (the historical bug was Close closing the input channel a
// racing submitter was sending on).
func TestStreamCloseAbortConcurrent(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	st, err := NewStream(StreamConfig{Scene: sc, Assign: NewAssignment(1, 1, 1, 1, 1, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := st.ProcessJob(job(sc, 0, 50))
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the job get moving
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				st.Close()
			} else {
				st.Abort()
			}
		}(i)
	}
	wg.Wait()
	// The job either finished before the teardown won the race (nil) or
	// reports the interruption; either way ProcessJob must return.
	if err := <-errc; err != nil && !errors.Is(err, ErrStreamClosed) {
		t.Errorf("interrupted ProcessJob = %v, want nil or ErrStreamClosed", err)
	}
	st.Close() // still idempotent after everything
	st.Abort()
}
