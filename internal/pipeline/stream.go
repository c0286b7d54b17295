package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pstap/internal/cube"
	"pstap/internal/fault"
	"pstap/internal/mp"
	"pstap/internal/obs"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

// ErrStreamClosed is returned by Stream.ProcessJob when the stream was
// closed or aborted before the job's results were produced.
var ErrStreamClosed = errors.New("pipeline: stream closed")

// ErrCPITimeout is returned by Stream.ProcessJob when a CPI's results did
// not arrive within StreamConfig.CPITimeout. The watchdog aborts the
// pipeline world first, so a stuck worker unwinds instead of leaking; the
// stream is unusable afterwards (a serving layer recycles the replica).
var ErrCPITimeout = errors.New("pipeline: CPI timeout exceeded")

// ErrDeadlineExceeded is returned by Stream.ProcessJobOpts when the job's
// deadline passed before its last CPI completed. Like the watchdog, the
// deadline aborts the pipeline world so every worker — local or on a
// remote node of a distributed replica — stops burning CPU on dead work;
// the stream is unusable afterwards and the serving layer rebuilds it.
var ErrDeadlineExceeded = errors.New("pipeline: job deadline exceeded")

// defaultWindow bounds the CPIs in flight when Window is 0.
const defaultWindow = 8

// StreamConfig describes a persistent pipeline instance.
type StreamConfig struct {
	Scene   *radar.Scene
	Assign  Assignment
	Window  int
	Threads int
	// Obs, when non-nil, receives every worker span and inter-task
	// message for the stream's lifetime — the live telemetry feed of a
	// serving replica (see internal/obs). The stream's CPI indices grow
	// monotonically across jobs, so the collector's sliding window spans
	// job boundaries naturally.
	Obs *obs.Collector
	// CPITimeout, when positive, bounds the gap between consecutive CPI
	// results during ProcessJob. When it elapses the watchdog aborts the
	// world (reaping hung workers) and ProcessJob returns ErrCPITimeout.
	CPITimeout time.Duration
	// Fault, when non-nil, injects deterministic faults into this
	// instance's workers and message plane (see internal/fault).
	Fault *fault.Injector
}

// Stream is a long-lived instance of the parallel pipeline: the seven task
// groups stay warm as goroutines and are fed jobs on demand instead of a
// fixed CPI stream — the serving building block behind internal/serve's
// replica pool. A job is an independent CPI sequence; the job boundary
// resets the adaptive weight state, so each job's detections are
// bit-identical to a fresh instance's (and to the serial reference) no
// matter what the instance processed before.
//
// ProcessJob must not be called concurrently: a Stream is owned by one
// submitting goroutine at a time (a serve replica). Close drains
// gracefully; Abort tears the instance down immediately. Both are
// idempotent and safe to call concurrently with a ProcessJob in flight
// and with each other.
type Stream struct {
	world      *mp.World
	sup        *supervisor
	params     radar.Params
	driver     bool // this process hosts the feeder + collector
	cpiTimeout time.Duration
	in         chan streamInput
	out        chan []stap.Detection
	quit       chan struct{} // closed once by Close or Abort
	wg         sync.WaitGroup

	closeOnce sync.Once

	cpis atomic.Int64 // CPIs that produced a detection report
}

// streamInput is one submitted CPI and its job flags (Reset, Last), which
// the submitter sets and the feeder stamps onto the CPI's ctl.
type streamInput struct {
	raw *cube.Cube
	job ctl
}

// Hosting selects which pieces of the pipeline world one process runs —
// the seam that lets a single logical replica span OS processes
// (internal/dist). World is a pre-built (typically partial) world sized
// Assign.Total()+1 whose non-hosted ranks route through a transport;
// Driver enables the feeder and collector (the driver rank must be hosted
// locally then); Tasks selects which task groups' workers to spawn (nil
// spawns none). The zero Hosting means a private full world running
// everything — what NewStream uses.
type Hosting struct {
	World  *mp.World
	Driver bool
	Tasks  func(task int) bool
}

// NewStream validates the configuration, starts the worker goroutines and
// returns the warm instance.
func NewStream(cfg StreamConfig) (*Stream, error) {
	return NewHostedStream(cfg, Hosting{Driver: true, Tasks: func(int) bool { return true }})
}

// NewHostedStream is NewStream for one process of a distributed replica:
// it spawns only the selected pieces against the given world. Worker code
// is identical in every hosting arrangement — the mp seam is what moves.
func NewHostedStream(cfg StreamConfig, h Hosting) (*Stream, error) {
	if cfg.Scene == nil {
		return nil, fmt.Errorf("pipeline: nil scene")
	}
	if err := cfg.Scene.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Assign.Validate(); err != nil {
		return nil, err
	}
	p := cfg.Scene.Params
	topo := newTopology(p, cfg.Assign)
	world := h.World
	if world == nil {
		world = mp.NewWorld(cfg.Assign.Total() + 1)
	} else if world.Size() != cfg.Assign.Total()+1 {
		return nil, fmt.Errorf("pipeline: hosted world size %d, want %d", world.Size(), cfg.Assign.Total()+1)
	}
	hostTask := h.Tasks
	if hostTask == nil {
		hostTask = func(int) bool { return false }
	}
	if h.Driver && !world.Hosts(topo.driver) {
		return nil, fmt.Errorf("pipeline: driver rank %d not hosted", topo.driver)
	}
	window := cfg.Window
	if window <= 0 {
		window = defaultWindow
	}
	e := &env{
		world:   world,
		topo:    topo,
		scene:   cfg.Scene,
		threads: cfg.Threads,
		obs:     cfg.Obs,
		fault:   cfg.Fault,
		sup:     newSupervisor(cfg.Assign),
		gain:    make([]float64, p.K),
		beamAz:  cfg.Scene.BeamAzimuths(),
		depth:   RingDepth(window),
	}
	for r := range e.gain {
		e.gain[r] = 1 / cfg.Scene.RangeGain(r)
	}
	if cfg.Obs != nil {
		world.SetObserver(cfg.Obs.OnSend)
		installWaitObserver(world, topo, cfg.Obs)
	}
	if cfg.Fault != nil {
		installFaultHooks(world, topo, cfg.Fault)
	}

	s := &Stream{
		world:      world,
		sup:        e.sup,
		params:     p,
		driver:     h.Driver,
		cpiTimeout: cfg.CPITimeout,
		in:         make(chan streamInput),
		out:        make(chan []stap.Detection, window),
		quit:       make(chan struct{}),
	}
	credits := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		credits <- struct{}{}
	}

	// Feeder (driver only): hands each Doppler worker a view of its range
	// block of the submitted CPI (no copy: the job's cubes are read in
	// place, see ProcessJob); a closed quit channel becomes the EOF message
	// that drains the task chain. The input channel itself is never
	// closed, so a submitter racing Close can never send on a closed
	// channel. It runs supervised (see superviseWorker), so a cube that
	// cannot be sliced aborts this instance, not the process.
	if h.Driver {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			superviseWorker(world, e.sup, DriverTask, driverFeeder, func() {
				feeder := world.Comm(topo.driver)
				cpi := 0
				for {
					select {
					case item := <-s.in:
						select {
						case <-credits:
						case <-world.Done():
							return
						}
						e.sup.enter(DriverTask, driverFeeder, cpi)
						// One trace identifier per CPI, shared by every Doppler
						// slab — the root of the CPI's span lineage.
						c := item.job
						c.Trace = obs.NewTraceID()
						for w, blk := range topo.kBlocks {
							feeder.Send(topo.groups[TaskDoppler].Global(w), tag(tagRaw, cpi),
								&rawMsg{Slab: item.raw.ViewAxis0(blk), Ctl: c})
						}
						cpi++
					case <-s.quit:
						for w := range topo.kBlocks {
							feeder.Send(topo.groups[TaskDoppler].Global(w), tag(tagRaw, cpi), &rawMsg{Ctl: ctl{EOF: true}})
						}
						return
					case <-world.Done():
						return
					}
				}
			})
		}()
	}

	// Workers run supervised (see superviseWorker): a panic is recorded
	// and aborts this instance's world instead of crashing the process.
	// Only locally hosted task groups spawn; the rest of the world's
	// ranks run in peer processes. Every loop ends the same way: on the
	// EOF control message the feeder injects at Close.
	for task, newStage := range [NumTasks]func(w int) stage{
		e.dopplerStage,
		func(w int) stage { return e.weightStage(&topo.easy, w) },
		func(w int) stage { return e.weightStage(&topo.hard, w) },
		func(w int) stage { return e.bfStage(&topo.easy, w) },
		func(w int) stage { return e.bfStage(&topo.hard, w) },
		e.pulseCompStage, e.cfarStage,
	} {
		if !hostTask(task) {
			continue
		}
		for w := 0; w < cfg.Assign[task]; w++ {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				superviseWorker(world, e.sup, task, w, func() { e.runStage(task, w, newStage(w)) })
			}()
		}
	}

	// Collector (driver only, supervised like the feeder): merges
	// per-CFAR-worker reports into per-CPI detection lists, in submission
	// order.
	if !h.Driver {
		return s, nil
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(s.out)
		superviseWorker(world, e.sup, DriverTask, driverCollector, func() {
			collector := world.Comm(topo.driver)
			cfar := topo.groups[TaskCFAR].Ranks()
			for cpi := 0; ; cpi++ {
				e.sup.enter(DriverTask, driverCollector, cpi)
				var merged []stap.Detection
				eof := false
				for _, src := range cfar {
					msg := collector.Recv(src, tag(tagDet, cpi)).(*detMsg)
					if msg.Ctl.EOF {
						eof = true
						continue
					}
					merged = append(merged, msg.Dets...)
				}
				if eof {
					return
				}
				sortDetections(merged)
				s.cpis.Add(1)
				select {
				case s.out <- merged:
				case <-world.Done():
					return
				}
				credits <- struct{}{}
			}
		})
	}()
	return s, nil
}

// ProcessJob runs one independent job — a CPI sequence sharing the
// stream's scene parameters — through the warm pipeline and returns the
// per-CPI detection reports. The adaptive weights restart at the job
// boundary, so the output equals processing the same cubes with a fresh
// serial stap.Processor. When the stream dies mid-job the error states
// why: *FaultError for a supervised worker fault, ErrCPITimeout when the
// per-CPI watchdog fired, ErrStreamClosed for a plain close or abort.
//
// The cubes are read in place, not copied: the caller must not modify them
// while the job runs — and, after an error return, until the stream has
// been closed or aborted, since workers of a dying instance may still be
// reading them.
func (s *Stream) ProcessJob(cpis []*cube.Cube) ([][]stap.Detection, error) {
	return s.ProcessJobOpts(cpis, JobOpts{})
}

// JobOpts tunes one ProcessJobOpts run.
type JobOpts struct {
	// Deadline, when non-zero, bounds the whole job: if it passes before
	// the last CPI's results arrive, the world is aborted with
	// ErrDeadlineExceeded as the cause and ProcessJobOpts returns it.
	Deadline time.Time
	// OnCPI, when non-nil, receives each CPI's merged detections the
	// moment the collector completes it, in CPI order, from the calling
	// goroutine — the progress feed a serving layer uses to keep a
	// high-water mark for failover replay. ProcessJobOpts still returns
	// the full per-CPI slice on success.
	OnCPI func(cpi int, dets []stap.Detection)
}

// ProcessJobOpts is ProcessJob with per-job options: an absolute deadline
// and a per-CPI progress callback. A job holding a cube of the wrong
// shape is refused before any of it is submitted, so the stream stays
// warm for the next job.
func (s *Stream) ProcessJobOpts(cpis []*cube.Cube, opts JobOpts) ([][]stap.Detection, error) {
	if len(cpis) == 0 {
		return nil, fmt.Errorf("pipeline: empty job")
	}
	if err := s.params.CheckCPIs(cpis); err != nil {
		return nil, fmt.Errorf("pipeline: job %w", err)
	}
	return s.processJob(len(cpis), func(i int) *cube.Cube { return cpis[i] }, opts)
}

// processJob runs an n-CPI job whose cubes are produced on demand: at(i)
// is called from the submitter goroutine just before the feeder takes CPI
// i, so a long run (see Run) never holds more cubes than the in-flight
// window plus the one being handed over.
func (s *Stream) processJob(n int, at func(i int) *cube.Cube, opts JobOpts) ([][]stap.Detection, error) {
	if !s.driver {
		return nil, fmt.Errorf("pipeline: ProcessJob on a non-driver hosted stream")
	}
	select {
	case <-s.quit:
		return nil, s.deathErr()
	default:
	}
	if s.world.Aborted() {
		return nil, s.deathErr()
	}
	// Arm the job deadline before the first CPI is submitted: expiry
	// aborts the world (stopping every worker, including remote ones via
	// the transport teardown) with the typed cause the collection loop
	// below surfaces.
	cancelDeadline := s.world.AbortAt(opts.Deadline, ErrDeadlineExceeded)
	defer cancelDeadline()
	// Submit from a separate goroutine so the bounded in-flight window
	// cannot deadlock submission against result collection. The submitter
	// always finishes before the final result arrives (the feeder must
	// consume the last CPI before CFAR can report it); every error return
	// below implies a closed quit or done channel, which also ends it. So
	// waiting for it on return never blocks, and at is never called after
	// processJob returns. at is the caller's code (Run's RawSource), so
	// the submitter runs supervised like the feeder: a panic in it is a
	// driver fault that aborts this instance, not the process.
	//
	// This loop is the one place a CPI's job flags are set: Reset on the
	// job's first CPI, Last on its last (one CPI may be both). So Reset
	// holds at the stream's first CPI and exactly at those that follow a
	// Last one, the invariant that keeps the weight streams aligned
	// across jobs (see ctl). The loop stops short only when the stream is
	// dying.
	submitted := make(chan struct{})
	defer func() { <-submitted }()
	go func() {
		defer close(submitted)
		superviseWorker(s.world, s.sup, DriverTask, driverSubmitter, func() {
			for i := 0; i < n; i++ {
				s.sup.enter(DriverTask, driverSubmitter, i)
				select {
				case s.in <- streamInput{raw: at(i), job: ctl{Reset: i == 0, Last: i == n-1}}:
				case <-s.quit:
					return
				case <-s.world.Done():
					return
				}
			}
		})
	}()
	var timer *time.Timer
	var timeout <-chan time.Time
	if s.cpiTimeout > 0 {
		timer = time.NewTimer(s.cpiTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	out := make([][]stap.Detection, 0, n)
	for len(out) < n {
		select {
		case dets, ok := <-s.out:
			if !ok {
				return nil, s.deathErr()
			}
			if opts.OnCPI != nil {
				opts.OnCPI(len(out), dets)
			}
			out = append(out, dets)
			if timer != nil {
				if !timer.Stop() {
					<-timer.C
				}
				timer.Reset(s.cpiTimeout)
			}
		case <-timeout:
			// Reap whatever is stuck: blocked workers (including an
			// injected hang) unwind via the abort panic.
			s.world.Abort()
			return nil, ErrCPITimeout
		}
	}
	return out, nil
}

// deathErr explains why the stream died: the first recorded worker fault
// when supervision caught one, then whatever cause aborted the world (a
// transport LinkError in a distributed replica), otherwise a plain
// closed-stream error.
func (s *Stream) deathErr() error {
	if f, ok := s.sup.first(); ok {
		return &FaultError{Fault: f}
	}
	if err := s.world.AbortCause(); err != nil {
		return err
	}
	return ErrStreamClosed
}

// Faults returns the worker faults supervision recorded on this instance,
// in arrival order.
func (s *Stream) Faults() []WorkerFault { return s.sup.Faults() }

// CPIsProcessed returns the number of CPIs the stream has fully processed.
func (s *Stream) CPIsProcessed() int64 { return s.cpis.Load() }

// Close drains the stream gracefully: everything already submitted is
// processed, then the worker goroutines exit. Close blocks until the
// teardown completes. It is idempotent and safe concurrently with Abort
// and with an in-flight ProcessJob (which returns an error for results it
// never received).
func (s *Stream) Close() {
	s.closeOnce.Do(func() { close(s.quit) })
	s.wg.Wait()
}

// Abort tears the stream down immediately, discarding in-flight work, and
// blocks until every goroutine has exited. A ProcessJob in flight returns
// an error. Idempotent, and safe concurrently with Close.
func (s *Stream) Abort() {
	s.closeOnce.Do(func() { close(s.quit) })
	s.world.Abort()
	s.wg.Wait()
}
