// Package pipeline implements the paper's parallel pipelined STAP system
// (Figure 4): seven parallel tasks — Doppler filter processing, easy and
// hard weight computation, easy and hard beamforming, pulse compression,
// CFAR — each executed by a group of worker goroutines ("compute nodes")
// communicating through the mp message-passing runtime.
//
// Partitioning follows the paper exactly: the Doppler task partitions the
// CPI cube along the range dimension (K); every other task partitions
// along the Doppler dimension (N). The Doppler-to-successor transfers are
// therefore all-to-all personalized communications with sender-side data
// collection (weight tasks receive only their training range subsets) and
// reorganization (beamforming receives Doppler-major, channel-unit-stride
// pieces). Temporal dependencies TD(1,3) and TD(2,4) are honored: the
// weights applied to CPI i were trained on CPIs up to i-1, and the first
// CPI uses steering-only weights, making the pipeline output equal to the
// serial reference bit for bit.
//
// There is one executor: a Stream (NewHostedStream is the only place
// workers are spawned). Every worker runs one loop, runStage, over its
// task's stage — the receive, compute and send callables of the Figure 10
// iteration; the loop ends on the EOF control message and journals its
// timing to the stream's obs.Collector. Run is one job on a private
// Stream, its Result read back from that journal.
package pipeline

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"pstap/internal/cube"
	"pstap/internal/fault"
	"pstap/internal/linalg"
	"pstap/internal/mp"
	"pstap/internal/obs"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

// Task indices in pipeline order.
const (
	TaskDoppler = iota
	TaskEasyWeight
	TaskHardWeight
	TaskEasyBF
	TaskHardBF
	TaskPulseComp
	TaskCFAR
	NumTasks
)

// Assignment is the per-task processor (worker goroutine) count — the
// knob Tables 7-10 of the paper turn.
type Assignment [NumTasks]int

// NewAssignment builds an assignment in task order.
func NewAssignment(doppler, easyW, hardW, easyBF, hardBF, pulse, cfar int) Assignment {
	return Assignment{doppler, easyW, hardW, easyBF, hardBF, pulse, cfar}
}

// String renders the assignment compactly in task order.
func (a Assignment) String() string {
	s := "["
	for i, n := range a {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprint(n)
	}
	return s + "]"
}

// Total returns the number of workers across all tasks.
func (a Assignment) Total() int {
	t := 0
	for _, n := range a {
		t += n
	}
	return t
}

// Validate checks that every task has at least one worker.
func (a Assignment) Validate() error {
	for i, n := range a {
		if n <= 0 {
			return fmt.Errorf("pipeline: task %s has %d workers", stap.TaskNames[i], n)
		}
	}
	return nil
}

// Config describes one pipeline run.
type Config struct {
	Scene   *radar.Scene
	Assign  Assignment
	NumCPIs int
	// Warmup and Cooldown CPIs are excluded from averaged timing (the
	// paper excludes the first 3 and last 2 of its 25).
	Warmup, Cooldown int
	// Window bounds the number of CPIs in flight (0 means defaultWindow).
	// Bounded buffering is what makes the system a pipeline rather than a
	// sequence of batch stages — the role the paper's double buffering
	// and finite MPI buffers play.
	Window int
	// CPIMap, when non-nil, maps the pipeline's local CPI index to the
	// scene's global CPI index (used by replicated pipelines, where
	// replica r processes global CPIs r, r+R, r+2R, ...). Nil means
	// identity.
	CPIMap func(int) int
	// RawSource, when non-nil, supplies raw CPI cubes by (mapped) index
	// instead of synthesizing them from the scene — used to replay
	// recorded data (cpifile). The scene still provides the parameters,
	// replica waveform and beam geometry.
	RawSource func(int) *cube.Cube
	// Threads spreads each worker's data-parallel kernels (Doppler
	// filtering, beamforming, pulse compression, CFAR) over this many
	// goroutines — the paper's "multiple processors on each compute node"
	// (the Paragon had three i860s per node). 0 or 1 means single
	// threaded. Results are bit-identical for any value.
	Threads int
	// Context, when non-nil, cancels the run: on Done the stream is
	// aborted, every task goroutine unwinds (no leaks), and Run returns
	// the context's error. Detections and timing of a cancelled run are
	// discarded.
	Context context.Context
	// Obs, when non-nil, receives every worker's span and every inter-task
	// message as the run executes — the always-on telemetry feed (live
	// gauges, Prometheus exposition, Perfetto export) — and is the journal
	// Result is built from, so its ring must hold Assign.Total() × NumCPIs
	// spans and it must not be shared with a concurrently running
	// pipeline. Nil means a private collector of exactly that size.
	Obs *obs.Collector
	// Fault, when non-nil, is the run's fault-injection plane
	// (internal/fault): compute faults fire at the top of each worker's
	// CPI loop and droppayload rules corrupt inter-task messages. The
	// injector must be fresh (one injector per pipeline world).
	Fault *fault.Injector
}

// Span is one worker's absolute phase timestamps for one CPI, following
// the Figure 10 loop: T0 = loop start (receive begins), T1 = input ready
// (compute begins), T2 = compute done (send/pack begins), T3 = loop end.
type Span struct {
	T0, T1, T2, T3 time.Time
}

// Times converts a span to phase durations.
func (s Span) Times() TaskTimes {
	return TaskTimes{Recv: s.T1.Sub(s.T0), Comp: s.T2.Sub(s.T1), Send: s.T3.Sub(s.T2)}
}

// TaskTimes is one worker's timing for one CPI, split per Figure 10:
// receive (including waiting and unpacking), compute, and send (packing +
// posting).
type TaskTimes struct {
	Recv, Comp, Send time.Duration
}

// Total returns the sum of the three phases.
func (t TaskTimes) Total() time.Duration { return t.Recv + t.Comp + t.Send }

// TaskStats is a task's timing averaged over its workers and the measured
// CPI window.
type TaskStats struct {
	Recv, Comp, Send time.Duration
}

// Total returns the averaged per-CPI execution time T_i of the task.
func (s TaskStats) Total() time.Duration { return s.Recv + s.Comp + s.Send }

// Result is everything a pipeline run produces.
type Result struct {
	// Detections[i] is the sorted detection report of CPI i.
	Detections [][]stap.Detection
	// Stats[t] is task t's averaged timing.
	Stats [NumTasks]TaskStats
	// Throughput is the measured rate in CPIs/second, from the completion
	// time gaps of the measured window (the paper's "real" throughput).
	Throughput float64
	// Latency is the measured input-ready-to-report time averaged over the
	// window (the paper's "real" latency).
	Latency time.Duration
	// Latencies holds the per-CPI measured latencies of the window, in CPI
	// order (for percentile analysis).
	Latencies []time.Duration
	// Elapsed is the total wall time of the run.
	Elapsed time.Duration
	// BytesSent counts all inter-task payload bytes.
	BytesSent int64
	// Messages counts inter-task messages.
	Messages int64
	// Spans is the run's span journal — one event per worker per CPI, in
	// completion order, offsets relative to Start, trace/hop lineage
	// included — for tracing (see internal/trace, obs.WriteChromeTrace).
	Spans []obs.SpanEvent
	// Start is the run's reference time for rendering spans.
	Start time.Time

	tasks []obs.TaskMeta
}

// EquationThroughput evaluates the paper's equation (1) on the measured
// task times: 1 / max_i T_i.
func (r *Result) EquationThroughput() float64 {
	var maxT time.Duration
	for _, s := range r.Stats {
		if s.Total() > maxT {
			maxT = s.Total()
		}
	}
	if maxT == 0 {
		return 0
	}
	return 1 / maxT.Seconds()
}

// EquationLatency evaluates the paper's equation (2) on the measured task
// times: T0 + max(T3, T4) + T5 + T6 (weight tasks excluded thanks to the
// temporal decoupling).
func (r *Result) EquationLatency() time.Duration {
	bf := r.Stats[TaskEasyBF].Total()
	if h := r.Stats[TaskHardBF].Total(); h > bf {
		bf = h
	}
	return r.Stats[TaskDoppler].Total() + bf + r.Stats[TaskPulseComp].Total() + r.Stats[TaskCFAR].Total()
}

// message stream identifiers; the wire tag is stream<<20 | cpi.
const (
	tagRaw = iota
	tagEasyTrain
	tagHardTrain
	tagEasyBFData
	tagHardBFData
	tagEasyW
	tagHardW
	tagEasyBeam
	tagHardBeam
	tagPower
	tagDet
)

// tagCPIMask wraps the CPI index into the tag's low bits. A stream counts
// CPIs without bound; the wraparound is safe because far fewer than 2^20
// CPIs can ever be in flight (the window bounds them).
const tagCPIMask = 1<<20 - 1

func tag(stream, cpi int) int { return stream<<20 | (cpi & tagCPIMask) }

// topology precomputes every partitioning and routing decision shared by
// the workers.
type topology struct {
	p      radar.Params
	groups [NumTasks]mp.Group
	driver int // driver rank (feeds input, collects reports)

	kBlocks []cube.Block // Doppler task's range blocks

	easy, hard side

	pcBlocks []cube.Block // over global bin space [0, N)
	cfBlocks []cube.Block
}

// side is one of the two bin classes the pipeline forks into after
// Doppler filtering: easy bins (J channels, one weight matrix per bin)
// and hard bins (2J staggered channels, one per range segment and bin).
// It is the table weightStage and bfStage are written once over — the
// side's routing, and its typed half (messages and stap kernels) adapted
// to one shape: rows and weights as [segment][binIdx], the easy side being
// a single segment.
type side struct {
	wTask, bfTask                    int
	trainTag, dataTag, wTag, beamTag int

	bins        []int        // the side's global Doppler bins, ascending
	wPos, bfPos []cube.Block // the two tasks' workers' position blocks in bins
	channels    int
	segs        int

	// rows unpacks a training message from a Doppler worker.
	rows func(msg any) ([][]*linalg.Matrix, ctl)
	// train starts a training state for bins and returns its per-CPI step:
	// observe the CPI's stacked rows, solve for the next CPI's weights.
	train func(p radar.Params, beamAz []float64, bins []int) func(rows [][]*linalg.Matrix) [][]*linalg.Matrix
	// weightsMsg packs weights for a beamforming worker; weights unpacks.
	weightsMsg func(ws [][]*linalg.Matrix) any
	weights    func(msg any) [][]*linalg.Matrix
	steer      func(s *stap.Weights) [][]*linalg.Matrix
	beamform   func(p radar.Params, slab *cube.Cube, ws [][]*linalg.Matrix, out *cube.Cube, threads int)
}

// sides returns the two bin classes in routing order: easy, then hard.
func (t *topology) sides() []*side { return []*side{&t.easy, &t.hard} }

func newTopology(p radar.Params, a Assignment) *topology {
	t := &topology{p: p}
	groups := mp.Layout(a[:])
	copy(t.groups[:], groups)
	t.driver = a.Total()
	t.kBlocks = cube.BlockPartition(p.K, a[TaskDoppler])
	t.easy = side{
		wTask: TaskEasyWeight, bfTask: TaskEasyBF,
		trainTag: tagEasyTrain, dataTag: tagEasyBFData, wTag: tagEasyW, beamTag: tagEasyBeam,
		bins: p.EasyBins(), channels: p.J, segs: 1,
		rows: func(msg any) ([][]*linalg.Matrix, ctl) {
			m := msg.(easyTrainMsg)
			return [][]*linalg.Matrix{m.Rows}, m.Ctl
		},
		train: func(p radar.Params, beamAz []float64, bins []int) func([][]*linalg.Matrix) [][]*linalg.Matrix {
			state := stap.NewEasyWeightStateForBins(p, beamAz, bins)
			return func(rows [][]*linalg.Matrix) [][]*linalg.Matrix {
				state.ObserveRows(rows[0])
				return [][]*linalg.Matrix{state.Compute()}
			}
		},
		weightsMsg: func(ws [][]*linalg.Matrix) any { return easyWeightsMsg{Ws: ws[0]} },
		weights:    func(msg any) [][]*linalg.Matrix { return [][]*linalg.Matrix{msg.(easyWeightsMsg).Ws} },
		steer:      func(s *stap.Weights) [][]*linalg.Matrix { return [][]*linalg.Matrix{s.Easy} },
		beamform: func(p radar.Params, slab *cube.Cube, ws [][]*linalg.Matrix, out *cube.Cube, threads int) {
			stap.BeamformEasySlabThreaded(p, slab, ws[0], out, threads)
		},
	}
	t.hard = side{
		wTask: TaskHardWeight, bfTask: TaskHardBF,
		trainTag: tagHardTrain, dataTag: tagHardBFData, wTag: tagHardW, beamTag: tagHardBeam,
		bins: p.HardBins(), channels: 2 * p.J, segs: p.NumSegments(),
		rows: func(msg any) ([][]*linalg.Matrix, ctl) {
			m := msg.(hardTrainMsg)
			return m.Rows, m.Ctl
		},
		train: func(p radar.Params, beamAz []float64, bins []int) func([][]*linalg.Matrix) [][]*linalg.Matrix {
			state := stap.NewHardWeightStateForBins(p, beamAz, bins)
			return func(rows [][]*linalg.Matrix) [][]*linalg.Matrix {
				state.ObserveRows(rows)
				return state.Compute()
			}
		},
		weightsMsg: func(ws [][]*linalg.Matrix) any { return hardWeightsMsg{Ws: ws} },
		weights:    func(msg any) [][]*linalg.Matrix { return msg.(hardWeightsMsg).Ws },
		steer:      func(s *stap.Weights) [][]*linalg.Matrix { return s.Hard },
		beamform:   stap.BeamformHardSlabThreaded,
	}
	for _, sd := range t.sides() {
		sd.wPos = cube.BlockPartition(len(sd.bins), a[sd.wTask])
		sd.bfPos = cube.BlockPartition(len(sd.bins), a[sd.bfTask])
	}
	t.pcBlocks = cube.BlockPartition(p.N, a[TaskPulseComp])
	t.cfBlocks = cube.BlockPartition(p.N, a[TaskCFAR])
	return t
}

// locate resolves a global rank to its (task, worker-local) position;
// (-1, -1) for the driver rank.
func (t *topology) locate(rank int) (task, worker int) {
	for ti, g := range t.groups {
		if g.Contains(rank) {
			return ti, g.Local(rank)
		}
	}
	return -1, -1
}

// binsAt returns list[blk.Lo:blk.Hi].
func binsAt(list []int, blk cube.Block) []int { return list[blk.Lo:blk.Hi] }

// sortDetections orders a merged report like stap.CFAR does.
func sortDetections(dets []stap.Detection) {
	sort.Slice(dets, func(i, j int) bool {
		a, b := dets[i], dets[j]
		if a.DopplerBin != b.DopplerBin {
			return a.DopplerBin < b.DopplerBin
		}
		if a.Beam != b.Beam {
			return a.Beam < b.Beam
		}
		return a.Range < b.Range
	})
}

// Run executes the pipeline over NumCPIs CPIs and blocks until every one
// has been processed: one job on a private Stream, with the timing of
// Result read back from the stream's span journal.
func Run(cfg Config) (*Result, error) {
	if cfg.Scene == nil {
		return nil, fmt.Errorf("pipeline: nil scene")
	}
	if err := cfg.Assign.Validate(); err != nil {
		return nil, err
	}
	n := cfg.NumCPIs
	if n <= 0 {
		return nil, fmt.Errorf("pipeline: NumCPIs %d", n)
	}
	if cfg.Warmup+cfg.Cooldown >= n {
		return nil, fmt.Errorf("pipeline: warmup %d + cooldown %d >= CPIs %d",
			cfg.Warmup, cfg.Cooldown, n)
	}
	col, need := cfg.Obs, cfg.Assign.Total()*n
	if col == nil {
		oc := DefaultObsConfig(cfg.Assign)
		oc.RingSize = need
		col = obs.New(oc)
	} else if col.RingSize() < need {
		return nil, fmt.Errorf("pipeline: Obs journal holds %d spans, run needs %d (%d workers x %d CPIs)",
			col.RingSize(), need, cfg.Assign.Total(), n)
	}
	mapCPI, source := cfg.CPIMap, cfg.RawSource
	if mapCPI == nil {
		mapCPI = func(i int) int { return i }
	}
	if source == nil {
		source = cfg.Scene.GenerateCPI
	}

	start := time.Now()
	s, err := NewStream(StreamConfig{
		Scene: cfg.Scene, Assign: cfg.Assign, Window: cfg.Window,
		Threads: cfg.Threads, Obs: col, Fault: cfg.Fault,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Context != nil {
		defer context.AfterFunc(cfg.Context, s.Abort)()
	}
	detections, err := s.processJob(n, func(i int) *cube.Cube { return source(mapCPI(i)) }, JobOpts{})
	elapsed := time.Since(start)
	if err != nil {
		s.Abort()
	} else {
		s.Close()
	}
	if f, ok := s.sup.first(); ok {
		return nil, &FaultError{Fault: f}
	}
	if err != nil || s.world.Aborted() {
		if cfg.Context != nil && cfg.Context.Err() != nil {
			return nil, fmt.Errorf("pipeline: run cancelled: %w", cfg.Context.Err())
		}
		return nil, fmt.Errorf("pipeline: run aborted")
	}

	res := &Result{
		Detections: detections,
		Elapsed:    elapsed,
		BytesSent:  s.world.BytesSent(),
		Messages:   s.world.MessagesSent(),
		// This run's spans are the journal entries since start (a caller's
		// collector may still hold an earlier run's).
		Spans: obs.SpansSince(col.Journal(), start.Sub(col.Start()).Nanoseconds()),
		Start: start,
		tasks: col.Tasks(),
	}
	if len(res.Spans) != need {
		return nil, fmt.Errorf("pipeline: journal holds %d of the run's %d spans (collector shared with another pipeline?)",
			len(res.Spans), need)
	}
	res.measure(cfg.Warmup, n-cfg.Cooldown)
	return res, nil
}

// measure fills the timing fields from the span journal over the CPI
// window [lo, hi). A CPI is ready when its first Doppler worker enters
// its loop and complete when its last CFAR worker has sent its report
// (stamping at the workers avoids collector-goroutine scheduling noise).
func (r *Result) measure(lo, hi int) {
	ready := make([]int64, hi)
	for i := range ready {
		ready[i] = math.MaxInt64
	}
	complete := make([]int64, hi)
	var sum [NumTasks]TaskStats
	var count [NumTasks]int
	for _, ev := range r.Spans {
		if ev.CPI < lo || ev.CPI >= hi {
			continue
		}
		t := ev.Task
		sum[t].Recv += time.Duration(ev.T1 - ev.T0)
		sum[t].Comp += time.Duration(ev.T2 - ev.T1)
		sum[t].Send += time.Duration(ev.T3 - ev.T2)
		count[t]++
		if t == TaskDoppler && ev.T0 < ready[ev.CPI] {
			ready[ev.CPI] = ev.T0
		}
		if t == TaskCFAR && ev.T3 > complete[ev.CPI] {
			complete[ev.CPI] = ev.T3
		}
	}
	for t, c := range count {
		d := time.Duration(c)
		r.Stats[t] = TaskStats{Recv: sum[t].Recv / d, Comp: sum[t].Comp / d, Send: sum[t].Send / d}
	}
	// Measured throughput: completion gaps inside the window.
	if span := complete[hi-1] - complete[lo]; hi-lo >= 2 && span > 0 {
		r.Throughput = float64(hi-lo-1) / time.Duration(span).Seconds()
	}
	// Measured latency: first-task-ready to report, averaged.
	var latSum time.Duration
	for cpi := lo; cpi < hi; cpi++ {
		l := time.Duration(complete[cpi] - ready[cpi])
		r.Latencies = append(r.Latencies, l)
		latSum += l
	}
	r.Latency = latSum / time.Duration(hi-lo)
}

// LatencyPercentile returns the q-quantile (0..1) of the measured per-CPI
// latencies, 0 when none were measured.
func (r *Result) LatencyPercentile(q float64) time.Duration {
	return obs.SortedQuantile(r.Latencies, q)
}
