package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pstap/internal/fault"
	"pstap/internal/mp"
	"pstap/internal/stap"
)

// WorkerFault identifies one worker goroutine's failure: which task and
// worker died, at which CPI of its loop, and why. Supervision produces
// one for every panic that is not the normal abort unwind, instead of
// letting it crash the process.
type WorkerFault struct {
	Task, Worker, CPI int
	Cause             string
}

// DriverTask is the Task of a fault in the driver rank's own goroutines,
// which belong to no task group: the feeder (Worker 0), the collector
// (Worker 1) and a job's submitter (Worker 2), which calls the caller's
// CPI source.
const DriverTask = NumTasks

const (
	driverFeeder = iota
	driverCollector
	driverSubmitter
)

// String renders the fault for logs and wire errors.
func (f WorkerFault) String() string {
	name := "driver"
	if f.Task < NumTasks {
		name = stap.TaskNames[f.Task]
	}
	return fmt.Sprintf("%s[%d] cpi %d: %s", name, f.Worker, f.CPI, f.Cause)
}

// FaultError is returned by Run and Stream.ProcessJob when a supervised
// worker goroutine died: the pipeline world was aborted and the instance
// is unusable (a serving layer recycles the replica).
type FaultError struct{ Fault WorkerFault }

// Error implements error.
func (e *FaultError) Error() string { return "pipeline: worker fault: " + e.Fault.String() }

// supervisor tracks every worker's loop progress and collects the faults
// the recover wrappers report. One supervisor serves one pipeline world.
type supervisor struct {
	cur [NumTasks + 1][]atomic.Int64 // current CPI per worker; row DriverTask is the feeder, collector and submitter

	mu     sync.Mutex
	faults []WorkerFault
}

func newSupervisor(a Assignment) *supervisor {
	s := &supervisor{}
	for t := range a {
		s.cur[t] = make([]atomic.Int64, a[t])
	}
	s.cur[DriverTask] = make([]atomic.Int64, driverSubmitter+1)
	return s
}

// enter marks the CPI a worker's loop is on — the index a fault report
// attributes if the iteration dies.
func (s *supervisor) enter(task, w, cpi int) { s.cur[task][w].Store(int64(cpi)) }

func (s *supervisor) record(f WorkerFault) {
	s.mu.Lock()
	s.faults = append(s.faults, f)
	s.mu.Unlock()
}

// Faults returns a copy of the recorded faults, in arrival order.
func (s *supervisor) Faults() []WorkerFault {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]WorkerFault(nil), s.faults...)
}

// first returns the earliest recorded fault.
func (s *supervisor) first() (WorkerFault, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.faults) == 0 {
		return WorkerFault{}, false
	}
	return s.faults[0], true
}

// superviseWorker runs one worker goroutine's body under supervision: an
// mp.ErrAborted panic (the normal unwind of a blocking call on an aborted
// world) is a clean exit, and any other panic is converted into a
// recorded WorkerFault plus a world abort — containing the failure to
// this pipeline instance instead of crashing the process.
func superviseWorker(world *mp.World, sup *supervisor, task, w int, body func()) {
	defer func() {
		r := recover()
		if r == nil || r == mp.ErrAborted {
			return
		}
		f := WorkerFault{Task: task, Worker: w, CPI: -1, Cause: fmt.Sprint(r)}
		if sup != nil {
			f.CPI = int(sup.cur[task][w].Load())
			sup.record(f)
		}
		world.Abort()
	}()
	body()
}

// faultPoint marks the top of a worker's CPI loop: it records the CPI for
// fault attribution and runs any injected compute-phase faults for this
// (task, worker, cpi) — the pipeline-side half of the fault plane (the
// other half corrupts messages through the mp send hook).
func (e *env) faultPoint(task, w, cpi int) {
	e.sup.enter(task, w, cpi)
	if e.fault != nil {
		e.fault.Compute(task, w, cpi)
	}
}

// installFaultHooks wires an injector into a freshly created world: hang
// and slow faults become reapable by the world's abort, and droppayload
// rules corrupt messages by destination — the send hook resolves the
// destination rank to its (task, worker) and the wire tag to its CPI.
func installFaultHooks(world *mp.World, topo *topology, inj *fault.Injector) {
	inj.Bind(world.Done())
	world.SetSendHook(func(src, dst, tag int, data any) (any, bool) {
		task, w := topo.locate(dst)
		if task < 0 {
			return data, false
		}
		return inj.Message(task, w, tag&tagCPIMask, data), false
	})
}
