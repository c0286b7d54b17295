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
	// RawSource, when non-nil, supplies CPI i's raw cube instead of
	// synthesizing it from the scene — used to replay recorded data
	// (cpifile). The scene still provides the parameters, replica
	// waveform and beam geometry.
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

// Result is everything a pipeline run produces.
type Result struct {
	// Detections[i] is the sorted detection report of CPI i.
	Detections [][]stap.Detection
	// Stats[t] is task t's timing averaged over its workers and the
	// measured CPIs [Warmup, NumCPIs−Cooldown): receive (including waiting
	// and unpacking), compute, and send (packing and posting), per Figure
	// 10.
	Stats [NumTasks]obs.PhaseMeans
	// Throughput is the measured rate in CPIs/second, from the completion
	// time gaps of the measured CPIs (the paper's "real" throughput).
	Throughput float64
	// Latency is the measured input-ready-to-report time averaged over the
	// measured CPIs (the paper's "real" latency, eq. 3).
	Latency time.Duration
	// Latencies holds the per-CPI measured latencies of the measured CPIs,
	// in CPI order (for percentile analysis).
	Latencies []time.Duration
	// Elapsed is the total wall time of the run, read after every worker
	// has exited, so it bounds every span in Spans — the weight tasks'
	// spans for a job's last CPI included, which nothing else waits for.
	Elapsed time.Duration
	// BytesSent counts the run's inter-task payload bytes and Messages
	// its inter-task messages: the growth of the collector's counts over
	// the run.
	BytesSent int64
	Messages  int64
	// Spans is the run's span journal — one event per worker per CPI, in
	// completion order, offsets relative to Start, trace/hop lineage
	// included — for tracing (see internal/trace, obs.WriteChromeTrace).
	Spans []obs.SpanEvent
	// Start is the run's reference time for rendering spans.
	Start time.Time

	tasks []obs.TaskMeta
	eq1   float64
	eq2   time.Duration
}

// EquationThroughput is the paper's equation (1) on the measured task
// times: 1 / max_i T_i.
func (r *Result) EquationThroughput() float64 { return r.eq1 }

// EquationLatency is the paper's equation (2) on the measured task times:
// T0 + max(T3, T4) + T5 + T6 (weight tasks excluded thanks to the temporal
// decoupling).
func (r *Result) EquationLatency() time.Duration { return r.eq2 }

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
	numStreams
)

// tagCPIMask wraps the CPI index into the tag's low bits. A stream counts
// CPIs without bound; the wraparound is safe because far fewer than 2^20
// CPIs can ever be in flight (the window bounds them).
const tagCPIMask = 1<<20 - 1

func tag(stream, cpi int) int { return stream<<20 | (cpi & tagCPIMask) }

// TagStream returns the message stream a tag names, and whether it is one
// of the pipeline's streams. Between two ranks, the messages of one stream
// are sent in CPI order.
func TagStream(tag int) (stream int, ok bool) {
	stream = tag >> 20
	return stream, tag >= 0 && stream < numStreams
}

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

	// rows unpacks a training message from a Doppler worker into dst
	// (one entry per segment) and returns its control flags.
	rows func(msg any, dst [][]*linalg.Matrix) ctl
	// train starts a training state for bins.
	train func(p radar.Params, beamAz []float64, bins []int) trainer
	// weightsMsg packs weights for a beamforming worker; weights unpacks
	// one segment of them.
	weightsMsg func(ws [][]*linalg.Matrix) any
	weights    func(msg any, seg int) []*linalg.Matrix
	steer      func(s *stap.Weights) [][]*linalg.Matrix
	beamform   func(w *stap.Workspace, p radar.Params, slab *cube.Cube, ws [][]*linalg.Matrix, out *cube.Cube, threads int)
}

// trainer is one weight worker's training state: step observes a CPI's
// stacked rows and writes the weights for the next CPI into out; reset
// restarts it at a job boundary, keeping its memory, so that independent
// jobs in a stream see exactly the fresh-start semantics of a new
// instance.
type trainer struct {
	step  func(rows, out [][]*linalg.Matrix)
	reset func()
}

// sides returns the two bin classes in routing order: easy, then hard.
func (t *topology) sides() [2]*side { return [2]*side{&t.easy, &t.hard} }

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
		rows: func(msg any, dst [][]*linalg.Matrix) ctl {
			m := msg.(*easyTrainMsg)
			dst[0] = m.Rows
			return m.Ctl
		},
		train: func(p radar.Params, beamAz []float64, bins []int) trainer {
			state := stap.NewEasyWeightStateForBins(p, beamAz, bins)
			return trainer{
				step: func(rows, out [][]*linalg.Matrix) {
					state.ObserveRows(rows[0])
					state.ComputeInto(out[0])
				},
				reset: state.Reset,
			}
		},
		weightsMsg: func(ws [][]*linalg.Matrix) any { return &easyWeightsMsg{Ws: ws[0]} },
		weights:    func(msg any, _ int) []*linalg.Matrix { return msg.(*easyWeightsMsg).Ws },
		steer:      func(s *stap.Weights) [][]*linalg.Matrix { return [][]*linalg.Matrix{s.Easy} },
		beamform: func(w *stap.Workspace, p radar.Params, slab *cube.Cube, ws [][]*linalg.Matrix, out *cube.Cube, threads int) {
			w.BeamformEasySlab(p, slab, ws[0], out, threads)
		},
	}
	t.hard = side{
		wTask: TaskHardWeight, bfTask: TaskHardBF,
		trainTag: tagHardTrain, dataTag: tagHardBFData, wTag: tagHardW, beamTag: tagHardBeam,
		bins: p.HardBins(), channels: 2 * p.J, segs: p.NumSegments(),
		rows: func(msg any, dst [][]*linalg.Matrix) ctl {
			m := msg.(*hardTrainMsg)
			copy(dst, m.Rows)
			return m.Ctl
		},
		train: func(p radar.Params, beamAz []float64, bins []int) trainer {
			state := stap.NewHardWeightStateForBins(p, beamAz, bins)
			return trainer{
				step: func(rows, out [][]*linalg.Matrix) {
					state.ObserveRows(rows)
					state.ComputeInto(out)
				},
				reset: state.Reset,
			}
		},
		weightsMsg: func(ws [][]*linalg.Matrix) any { return &hardWeightsMsg{Ws: ws} },
		weights:    func(msg any, seg int) []*linalg.Matrix { return msg.(*hardWeightsMsg).Ws[seg] },
		steer:      func(s *stap.Weights) [][]*linalg.Matrix { return s.Hard },
		beamform:   (*stap.Workspace).BeamformHardSlab,
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
	ocfg := DefaultObsConfig(cfg.Assign)
	col, need := cfg.Obs, cfg.Assign.Total()*n
	if col == nil {
		ocfg.RingSize = need
		col = obs.New(ocfg)
	} else if col.RingSize() < need {
		return nil, fmt.Errorf("pipeline: Obs journal holds %d spans, run needs %d (%d workers x %d CPIs)",
			col.RingSize(), need, cfg.Assign.Total(), n)
	}
	source := cfg.RawSource
	if source == nil {
		source = cfg.Scene.GenerateCPI
	}

	start := time.Now()
	msgs0, bytes0 := col.Messages(), col.Bytes()
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
	detections, err := s.processJob(n, source, JobOpts{})
	if err != nil {
		s.Abort()
	} else {
		s.Close()
	}
	elapsed := time.Since(start)
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
		BytesSent:  col.Bytes() - bytes0,
		Messages:   col.Messages() - msgs0,
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
	// The measured CPIs are [Warmup, n−Cooldown); every one of them is
	// complete, since the journal holds every worker's span of every CPI.
	cpis := make([]int, 0, n-cfg.Warmup-cfg.Cooldown)
	for cpi := cfg.Warmup; cpi < n-cfg.Cooldown; cpi++ {
		cpis = append(cpis, cpi)
	}
	g := obs.Measure(ocfg.Tasks, ocfg.LatencyPath, res.Spans, cpis)
	copy(res.Stats[:], g.Tasks)
	res.Throughput, res.Latency, res.Latencies = g.RealThroughput, g.Eq3Latency, g.Latencies
	res.eq1, res.eq2 = g.Eq1Throughput, g.Eq2Latency
	return res, nil
}

// LatencyPercentile returns the q-quantile (0..1) of the measured per-CPI
// latencies, 0 when none were measured.
func (r *Result) LatencyPercentile(q float64) time.Duration {
	return obs.SortedQuantile(r.Latencies, q)
}
