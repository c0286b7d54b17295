package obs

import (
	"fmt"
	"sort"
)

// Critical-path attribution: walk the trace-id-linked span journal (and
// the distributed transport's wire-event journal) and split each CPI's
// measured end-to-end latency into six components — queue wait, compute,
// serialize, deserialize, transmit and stall — that sum to the measured
// latency exactly.
//
// The engine segments the CPI's end-to-end window along the latency
// path: stage i owns the timeline segment from the previous stage's last
// completion to its own last completion (clamped monotone, so the
// segments telescope and their lengths sum to exactly ready→done). Each
// segment is then classified by intersecting it with the stage's
// critical worker span — recv overlap is queue wait, compute overlap is
// compute, send overlap starts as local send work — and refined with the
// wire events whose endpoints touch the stage: deserialize and payload
// read carve queue wait down, serialize/writer-wait/socket-write carve
// the send share, all with clamped subtraction so the per-segment sum is
// preserved. What no measurement claims is stall: pipeline idle time.
//
// Because every refinement is a reallocation inside a fixed segment, the
// six components sum to the measured end-to-end latency by construction;
// AttrSumTolFrac exists to assert the implementation keeps that
// invariant, not to hide error.

// AttrSumTolFrac is the pinned sum-to-total tolerance: a waterfall whose
// component sum strays further than this fraction from its measured
// end-to-end latency marks the report as out of tolerance.
const AttrSumTolFrac = 0.05

// AttributeConfig describes the pipeline shape the attribution engine
// walks.
type AttributeConfig struct {
	// Tasks is the task metadata (Collector.Tasks()).
	Tasks []TaskMeta
	// LatencyPath is the eq. (2) latency chain (Config.LatencyPath): the
	// stages attribution segments the end-to-end window along.
	LatencyPath [][]int
	// RankTask maps message-runtime rank to task index (-1 for ranks that
	// host no pipeline task, such as the driver). Wire events are matched
	// to stages through it; empty disables wire refinement.
	RankTask []int
}

// Components is one waterfall's six-way latency split, in nanoseconds.
// Queue is time blocked waiting for input, Compute the task's own work
// (including local packing), Serialize/Deserialize the codec costs on
// distributed links, Transmit the socket copy time, and Stall everything
// no measurement claims — waits for a link's writer and pipeline idle.
type Components struct {
	Queue       int64 `json:"queue_ns"`
	Compute     int64 `json:"compute_ns"`
	Serialize   int64 `json:"serialize_ns"`
	Deserialize int64 `json:"deserialize_ns"`
	Transmit    int64 `json:"transmit_ns"`
	Stall       int64 `json:"stall_ns"`
}

// ComponentNames names the six components in Get order.
var ComponentNames = [6]string{"queue", "compute", "serialize", "deserialize", "transmit", "stall"}

// Get returns component i in ComponentNames order.
func (c Components) Get(i int) int64 {
	switch i {
	case 0:
		return c.Queue
	case 1:
		return c.Compute
	case 2:
		return c.Serialize
	case 3:
		return c.Deserialize
	case 4:
		return c.Transmit
	default:
		return c.Stall
	}
}

// Total returns the component sum — by construction the segment (and,
// summed over stages, the end-to-end) length.
func (c Components) Total() int64 {
	return c.Queue + c.Compute + c.Serialize + c.Deserialize + c.Transmit + c.Stall
}

// WireNs returns the wire-tax share: the costs the transfer machinery
// measured (codec and socket copy). Stall is excluded — the component
// mixes writer waits with plain pipeline idle, and an in-process replica
// with zero wire events must report a zero wire tax (the per-hop
// HopAttr.WireNs, built from wire events alone, does count writer waits).
func (c Components) WireNs() int64 {
	return c.Serialize + c.Deserialize + c.Transmit
}

// add accumulates o into c.
func (c *Components) add(o Components) {
	c.Queue += o.Queue
	c.Compute += o.Compute
	c.Serialize += o.Serialize
	c.Deserialize += o.Deserialize
	c.Transmit += o.Transmit
	c.Stall += o.Stall
}

// StageWaterfall is one latency-path stage's share of a CPI waterfall.
type StageWaterfall struct {
	// Stage indexes the configured LatencyPath.
	Stage int `json:"stage"`
	// Task is the stage's critical task for this CPI (the member whose
	// last worker finished latest) and Worker that worker.
	Task   int    `json:"task"`
	Name   string `json:"name"`
	Worker int    `json:"worker"`
	// StartNs/EndNs bound the stage's timeline segment, relative to the
	// CPI's ready instant.
	StartNs int64      `json:"start_ns"`
	EndNs   int64      `json:"end_ns"`
	Comp    Components `json:"components"`
}

// Waterfall is one CPI's full attribution: where every nanosecond of its
// measured end-to-end latency went.
type Waterfall struct {
	Trace uint64 `json:"trace"`
	CPI   int    `json:"cpi"`
	// ReadyNs/DoneNs are the eq. (3) endpoints on the (clock-corrected)
	// collector timeline; E2ENs = DoneNs - ReadyNs is the measured
	// end-to-end latency the components sum to.
	ReadyNs int64            `json:"ready_ns"`
	DoneNs  int64            `json:"done_ns"`
	E2ENs   int64            `json:"e2e_ns"`
	Stages  []StageWaterfall `json:"stages"`
	Comp    Components       `json:"components"`
}

// SumErrFrac returns |component sum − end-to-end| as a fraction of the
// end-to-end latency — the sum-to-total invariant's residual.
func (wf *Waterfall) SumErrFrac() float64 {
	if wf.E2ENs <= 0 {
		return 0
	}
	d := wf.Comp.Total() - wf.E2ENs
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(wf.E2ENs)
}

// Attribute walks a span journal (plus the wire-event journal, which may
// be nil) and produces one waterfall per complete CPI: a CPI whose
// every latency-path stage has a full worker set of spans journaled.
// Spans from several processes must be corrected onto one clock first
// (internal/serve does); wire durations are single-clock and need no
// correction. Incomplete CPIs — spans evicted from the ring, or still in
// flight — are silently dropped.
func Attribute(cfg AttributeConfig, spans []SpanEvent, wire []WireEvent) []Waterfall {
	if len(cfg.LatencyPath) == 0 || len(cfg.Tasks) == 0 {
		return nil
	}
	// Group spans by (trace, CPI): a trace id is unique per CPI within a
	// job, and the CPI index disambiguates id reuse across job Reset
	// boundaries.
	type key struct {
		trace uint64
		cpi   int
	}
	groups := make(map[key][]SpanEvent)
	for _, ev := range spans {
		if ev.Trace == 0 {
			continue
		}
		k := key{ev.Trace, ev.CPI}
		groups[k] = append(groups[k], ev)
	}
	wireByTrace := make(map[uint64][]WireEvent)
	for _, ev := range wire {
		if ev.Trace == 0 {
			continue
		}
		wireByTrace[ev.Trace] = append(wireByTrace[ev.Trace], ev)
	}

	nStages := len(cfg.LatencyPath)
	want := make([]int, nStages)
	for i, stage := range cfg.LatencyPath {
		want[i] = workerSum(cfg.Tasks, stage)
	}

	var out []Waterfall
	for k, evs := range groups {
		byStage := make([][]SpanEvent, nStages)
		for _, ev := range evs {
			for i, stage := range cfg.LatencyPath {
				if inSet(stage, ev.Task) {
					byStage[i] = append(byStage[i], ev)
					break
				}
			}
		}
		complete := true
		for i := range byStage {
			if want[i] == 0 || len(byStage[i]) < want[i] {
				complete = false
				break
			}
		}
		if !complete {
			continue
		}

		ready := byStage[0][0].T0
		for _, ev := range byStage[0] {
			if ev.T0 < ready {
				ready = ev.T0
			}
		}
		done := byStage[nStages-1][0].T3
		for _, ev := range byStage[nStages-1] {
			if ev.T3 > done {
				done = ev.T3
			}
		}
		if done <= ready {
			continue
		}

		wf := Waterfall{
			Trace: k.trace, CPI: k.cpi,
			ReadyNs: ready, DoneNs: done, E2ENs: done - ready,
		}
		// Telescoping stage boundaries: stage i ends at the latest T3
		// among its spans, clamped monotone into [prev, done] so the
		// segment lengths sum to exactly done-ready even under residual
		// cross-node clock error.
		prev := ready
		for i := 0; i < nStages; i++ {
			crit := byStage[i][0]
			for _, ev := range byStage[i] {
				if ev.T3 > crit.T3 {
					crit = ev
				}
			}
			end := crit.T3
			if i == nStages-1 {
				end = done
			}
			if end < prev {
				end = prev
			}
			if end > done {
				end = done
			}
			sw := attributeSegment(cfg, i, crit, prev, end, wireByTrace[k.trace])
			wf.Comp.add(sw.Comp)
			wf.Stages = append(wf.Stages, sw)
			prev = end
		}
		out = append(out, wf)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DoneNs < out[j].DoneNs })
	return out
}

// attributeSegment classifies one stage's timeline segment [start, end)
// against its critical span's phases and the stage's wire events.
func attributeSegment(cfg AttributeConfig, stage int, crit SpanEvent, start, end int64, wire []WireEvent) StageWaterfall {
	sw := StageWaterfall{
		Stage: stage, Task: crit.Task, Worker: crit.Worker,
		StartNs: start, EndNs: end,
	}
	if crit.Task >= 0 && crit.Task < len(cfg.Tasks) {
		sw.Name = cfg.Tasks[crit.Task].Name
	}
	segLen := end - start
	if segLen <= 0 {
		return sw
	}
	queue := overlap(crit.T0, crit.T1, start, end)
	comp := overlap(crit.T1, crit.T2, start, end)
	sendSeg := overlap(crit.T2, crit.T3, start, end)
	residual := segLen - queue - comp - sendSeg // phase-uncovered idle

	// Wire refinement: costs measured on this stage's side of the links.
	// Receive-side work (payload read + gob decode, done by the transport
	// reader concurrently with the worker's blocked wait) reallocates
	// queue wait; send-side work reallocates the send share. Clamped
	// subtraction keeps the segment sum intact even when an event's cost
	// partially fell outside this CPI's segment.
	var ser, deser, tx, stall int64
	if len(cfg.RankTask) > 0 {
		var rxDeser, rxRead, txSer, txStall, txWrite int64
		stageTasks := cfg.LatencyPath[stage]
		for _, ev := range wire {
			switch ev.Dir {
			case WireRecv:
				if t := rankTask(cfg.RankTask, ev.Dst); t >= 0 && inSet(stageTasks, t) {
					rxDeser += ev.DeserNs
					rxRead += ev.XmitNs
				}
			case WireSend:
				if t := rankTask(cfg.RankTask, ev.Src); t >= 0 && inSet(stageTasks, t) {
					txSer += ev.SerNs
					txStall += ev.StallNs
					txWrite += ev.XmitNs
				}
			}
		}
		deser = min64(rxDeser, queue)
		queue -= deser
		rx := min64(rxRead, queue)
		queue -= rx
		ser = min64(txSer, sendSeg)
		sendSeg -= ser
		stall = min64(txStall, sendSeg)
		sendSeg -= stall
		tx = min64(txWrite, sendSeg)
		sendSeg -= tx
		tx += rx
	}

	sw.Comp = Components{
		Queue:       queue,
		Compute:     comp + sendSeg, // unclaimed send share is local packing
		Serialize:   ser,
		Deserialize: deser,
		Transmit:    tx,
		Stall:       residual + stall,
	}
	return sw
}

// rankTask maps a rank through RankTask, -1 when out of range.
func rankTask(rankTask []int, rank int) int {
	if rank < 0 || rank >= len(rankTask) {
		return -1
	}
	return rankTask[rank]
}

// overlap returns the length of [a0,a1) ∩ [b0,b1).
func overlap(a0, a1, b0, b1 int64) int64 {
	lo, hi := max64(a0, b0), min64(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TaskAttr is one latency-path task's windowed attribution aggregate.
type TaskAttr struct {
	Task int    `json:"task"`
	Name string `json:"name"`
	// CPIs is how many window waterfalls this task was the critical
	// member of its stage in.
	CPIs int `json:"cpis"`
	// Mean is the mean per-CPI component split of the task's segments.
	Mean Components `json:"mean"`
	// Utilization is the productive share of the task's segment: compute
	// plus wire work over the whole segment (queue and stall are idle).
	Utilization float64 `json:"utilization"`
}

// HopAttr is one distributed link hop's windowed wire-cost aggregate,
// keyed by the task pair whose data crossed it.
type HopAttr struct {
	FromTask int    `json:"from_task"`
	ToTask   int    `json:"to_task"`
	From     string `json:"from"`
	To       string `json:"to"`
	Events   int    `json:"events"`
	Bytes    int64  `json:"bytes"`
	SerNs    int64  `json:"serialize_ns"`
	DeserNs  int64  `json:"deserialize_ns"`
	XmitNs   int64  `json:"transmit_ns"`
	StallNs  int64  `json:"stall_ns"`
	// WireFrac is the hop's total wire cost as a fraction of the window's
	// summed end-to-end latency — the wire tax this hop levies.
	WireFrac float64 `json:"wire_frac"`
}

// WireNs returns the hop's total measured wire cost.
func (h HopAttr) WireNs() int64 { return h.SerNs + h.DeserNs + h.XmitNs + h.StallNs }

// BottleneckReport is the /bottlenecks.json payload: the windowed
// attribution view with tail exemplars.
type BottleneckReport struct {
	// WindowCPIs is how many complete waterfalls the window holds.
	WindowCPIs int `json:"window_cpis"`
	// TolFrac is the pinned sum-to-total tolerance and SumErrFracMax the
	// worst observed residual; SumWithinTol asserts the invariant held
	// for every window waterfall.
	TolFrac       float64 `json:"tol_frac"`
	SumErrFracMax float64 `json:"sum_err_frac_max"`
	SumWithinTol  bool    `json:"sum_within_tol"`
	// E2E latency statistics over the window, nanoseconds.
	E2EMeanNs int64 `json:"e2e_mean_ns"`
	E2EMaxNs  int64 `json:"e2e_max_ns"`
	// Totals is the window's summed component split.
	Totals Components `json:"totals"`
	// WireFrac is the window's total wire tax: wire components over
	// summed end-to-end latency.
	WireFrac float64 `json:"wire_frac"`
	// Dominant names the largest mean component, as "component:task".
	Dominant string `json:"dominant"`
	// Tasks aggregates per latency-path task, Hops per link task pair.
	Tasks []TaskAttr `json:"tasks"`
	Hops  []HopAttr  `json:"hops"`
	// Exemplars are the top-K slowest window CPIs with full waterfalls.
	Exemplars []Waterfall `json:"exemplars"`
}

// BuildBottleneckReport attributes the journals and aggregates the
// freshest `window` complete CPIs (by completion time) into a report
// with the topK slowest kept as exemplars.
func BuildBottleneckReport(cfg AttributeConfig, spans []SpanEvent, wire []WireEvent, window, topK int) *BottleneckReport {
	if window <= 0 {
		window = DefaultWindow
	}
	if topK <= 0 {
		topK = 5
	}
	wfs := Attribute(cfg, spans, wire)
	if len(wfs) > window {
		wfs = wfs[len(wfs)-window:]
	}
	rep := &BottleneckReport{
		WindowCPIs:   len(wfs),
		TolFrac:      AttrSumTolFrac,
		SumWithinTol: true,
	}
	if len(wfs) == 0 {
		// No complete CPI on this process (a node hosting only part of
		// the latency path never sees full worker sets): the waterfall
		// view is empty, but the hop table still reports the wire costs
		// measured here.
		rep.Hops = aggregateHops(cfg, wire, nil, 0)
		return rep
	}

	taskAgg := map[int]*TaskAttr{}
	var e2eSum int64
	traces := make(map[uint64]struct{}, len(wfs))
	for i := range wfs {
		wf := &wfs[i]
		traces[wf.Trace] = struct{}{}
		e2eSum += wf.E2ENs
		if wf.E2ENs > rep.E2EMaxNs {
			rep.E2EMaxNs = wf.E2ENs
		}
		if f := wf.SumErrFrac(); f > rep.SumErrFracMax {
			rep.SumErrFracMax = f
		}
		rep.Totals.add(wf.Comp)
		for _, sw := range wf.Stages {
			ta := taskAgg[sw.Task]
			if ta == nil {
				ta = &TaskAttr{Task: sw.Task, Name: sw.Name}
				taskAgg[sw.Task] = ta
			}
			ta.CPIs++
			ta.Mean.add(sw.Comp)
		}
	}
	rep.E2EMeanNs = e2eSum / int64(len(wfs))
	rep.SumWithinTol = rep.SumErrFracMax <= rep.TolFrac
	if e2eSum > 0 {
		rep.WireFrac = float64(rep.Totals.WireNs()) / float64(e2eSum)
	}

	for _, ta := range taskAgg {
		n := int64(ta.CPIs)
		ta.Mean = Components{
			Queue:       ta.Mean.Queue / n,
			Compute:     ta.Mean.Compute / n,
			Serialize:   ta.Mean.Serialize / n,
			Deserialize: ta.Mean.Deserialize / n,
			Transmit:    ta.Mean.Transmit / n,
			Stall:       ta.Mean.Stall / n,
		}
		if tot := ta.Mean.Total(); tot > 0 {
			ta.Utilization = float64(ta.Mean.Compute+ta.Mean.Serialize+ta.Mean.Deserialize+ta.Mean.Transmit) / float64(tot)
		}
		rep.Tasks = append(rep.Tasks, *ta)
	}
	sort.Slice(rep.Tasks, func(i, j int) bool { return rep.Tasks[i].Task < rep.Tasks[j].Task })

	// The dominant bottleneck: the largest mean component anywhere.
	var domV int64 = -1
	for _, ta := range rep.Tasks {
		for i := 0; i < len(ComponentNames); i++ {
			if v := ta.Mean.Get(i); v > domV {
				domV = v
				rep.Dominant = fmt.Sprintf("%s:%s", ComponentNames[i], ta.Name)
			}
		}
	}

	// Per-hop wire aggregates over the window's traces.
	rep.Hops = aggregateHops(cfg, wire, traces, e2eSum)

	// Tail exemplars: the window's topK slowest CPIs, slowest first.
	ex := append([]Waterfall(nil), wfs...)
	sort.Slice(ex, func(i, j int) bool { return ex[i].E2ENs > ex[j].E2ENs })
	if len(ex) > topK {
		ex = ex[:topK]
	}
	rep.Exemplars = ex
	return rep
}

// aggregateHops folds wire events into per-(fromTask, toTask) hop
// aggregates. A nil traces set disables the window filter; e2eSum == 0
// leaves every WireFrac zero (no latency denominator on this process).
func aggregateHops(cfg AttributeConfig, wire []WireEvent, traces map[uint64]struct{}, e2eSum int64) []HopAttr {
	type hopKey struct{ from, to int }
	hopAgg := map[hopKey]*HopAttr{}
	for _, ev := range wire {
		if traces != nil {
			if _, ok := traces[ev.Trace]; !ok {
				continue
			}
		}
		from, to := rankTask(cfg.RankTask, ev.Src), rankTask(cfg.RankTask, ev.Dst)
		h := hopAgg[hopKey{from, to}]
		if h == nil {
			h = &HopAttr{
				FromTask: from, ToTask: to,
				From: taskName(cfg.Tasks, from), To: taskName(cfg.Tasks, to),
			}
			hopAgg[hopKey{from, to}] = h
		}
		h.Events++
		h.Bytes += ev.Bytes
		h.SerNs += ev.SerNs
		h.DeserNs += ev.DeserNs
		h.XmitNs += ev.XmitNs
		h.StallNs += ev.StallNs
	}
	out := make([]HopAttr, 0, len(hopAgg))
	for _, h := range hopAgg {
		if e2eSum > 0 {
			h.WireFrac = float64(h.WireNs()) / float64(e2eSum)
		}
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FromTask != out[j].FromTask {
			return out[i].FromTask < out[j].FromTask
		}
		return out[i].ToTask < out[j].ToTask
	})
	return out
}

// taskName labels a task index, "driver" for the coordinator rank's -1.
func taskName(tasks []TaskMeta, t int) string {
	if t >= 0 && t < len(tasks) {
		return tasks[t].Name
	}
	return "driver"
}
