package main

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"time"

	"pstap/internal/cube"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/redist"
	"pstap/internal/serve"
	"pstap/internal/stap"
	"pstap/internal/wire"
)

// Lanes (trace rows) of the probes; submitters use lanes 0 and 1.
const (
	laneStap = 10 + iota
	lanePipeline
	laneRedist
	laneWire
)

// probeBudget bounds how long a direct-call probe repeats its work.
const probeBudget = 300 * time.Millisecond

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// msPer is d in milliseconds per one of n (0 when n is 0).
func msPer(d time.Duration, n int) float64 { return safeDiv(millis(d), float64(n)) }

// perLayer runs the traced pass of one workload: an untraced window (the
// rate the traced one is compared with), a traced window bracketed by the
// program's own link and server counters, direct-call probes of the
// kernels, the batch pipeline, the redistribution and the frame codec on
// the workload's own cubes, and a window of the same jobs through plain
// in-process streams, the base of path.tax. Each window gets a third of d.
// The returned window carries only the attempted/failed totals.
func perLayer(w workload, seed int64, d time.Duration, tracePath string) (window, []metric, error) {
	r, _, err := setup(w, seed)
	if err != nil {
		return window{}, nil, err
	}
	tr := &tracer{}

	runtime.GC()
	plain := runWindow(r, d/3, nil)
	links0, srv0 := distTotals(r.tg), serveTotals(r.tg)
	traced := runWindow(r, d/3, tr)
	links1, srv1 := distTotals(r.tg), serveTotals(r.tg)
	r.tg.stop()

	var ms []metric
	add := func(name string, v float64, unit string) { ms = append(ms, metric{name, v, unit}) }

	// Kernels.
	kern, kernCPIs, err := probeStap(r, tr)
	if err != nil {
		return window{}, nil, err
	}
	var kernMs float64
	for k, name := range stapKernels {
		add("stap."+name+"_ms", msPer(kern[k], kernCPIs), "ms")
		kernMs += msPer(kern[k], kernCPIs)
	}
	flops := float64(stap.CountFlops(w.params).Total())
	add("stap.flops_per_cpi", flops, "count")
	add("stap.mflops", safeDiv(flops, kernMs*1e3), "Mflop/s")
	add("stap.core_frac", kernMs*plain.cpiPerS/(1000*float64(runtime.GOMAXPROCS(0))), "ratio")

	// Batch pipeline and redistribution.
	pipe, err := probePipeline(r, tr)
	if err != nil {
		return window{}, nil, err
	}
	ms = append(ms, pipe...)
	pack, assemble, n := probeRedist(r, tr)
	add("redist.pack_ms", msPer(pack, n), "ms")
	add("redist.assemble_ms", msPer(assemble, n), "ms")

	// Frame codec.
	codec, err := probeWire(r, tr)
	if err != nil {
		return window{}, nil, err
	}
	ms = append(ms, codec...)

	// The same jobs through plain in-process streams, one per submitter:
	// what the workload's path costs over the bare pipeline.
	base := w
	base.kind = kindPipe
	btg, err := start(base, r.scene)
	if err != nil {
		return window{}, nil, err
	}
	br := &rig{w: base, scene: r.scene, pool: r.pool, tg: btg}
	if err := br.warm(); err != nil {
		btg.stop()
		return window{}, nil, err
	}
	baseWin := runWindow(br, d/3, nil)
	btg.stop()
	add("path.tax", safeDiv(baseWin.cpiPerS, plain.cpiPerS), "ratio")
	add("trace.overhead_frac", 1-safeDiv(traced.cpiPerS, plain.cpiPerS), "ratio")

	tracedCPIs := (traced.attempted - traced.failed) * w.jobCPIs
	if w.kind == kindDist {
		dl := links1.sub(links0)
		add("dist.msgs_per_cpi", safeDiv(float64(dl.msgs), float64(tracedCPIs)), "count")
		add("dist.bytes_per_cpi", safeDiv(float64(dl.bytes), float64(tracedCPIs)), "B")
		add("dist.ser_ms", msPer(time.Duration(dl.serNs), tracedCPIs), "ms")
		add("dist.deser_ms", msPer(time.Duration(dl.deserNs), tracedCPIs), "ms")
		add("dist.xmit_ms", msPer(time.Duration(dl.xmitNs), tracedCPIs), "ms")
		add("dist.stall_ms", msPer(time.Duration(dl.stallNs), tracedCPIs), "ms")
		add("dist.rtt_ms", links1.rttMs, "ms")
	}
	if w.kind == kindServe {
		ms = append(ms, serveMetrics(traced, srv0, srv1)...)
	}

	if err := tr.write(tracePath); err != nil {
		return window{}, nil, fmt.Errorf("%s: write trace: %w", w.name, err)
	}
	total := window{
		attempted:    plain.attempted + traced.attempted + baseWin.attempted,
		failed:       plain.failed + traced.failed + baseWin.failed,
		firstFailure: cmp.Or(plain.firstFailure, traced.firstFailure, baseWin.firstFailure),
	}
	return total, ms, nil
}

// stapKernels names the six stages in stap.Processor's call order.
var stapKernels = [6]string{"doppler", "beamform", "pulsecomp", "cfar", "easy_weight", "hard_weight"}

// probeStap times the kernels by calling them directly, in the order and
// with the temporal dependence of stap.Processor (weights trained on CPI
// i-1 applied to CPI i, fresh state per job), on whole pool jobs until the
// budget is spent. It returns the summed time per kernel and the CPI count.
// The chain's detections must equal the reference's, which keeps the probe
// honest about what it measures.
func probeStap(r *rig, tr *tracer) (times [6]time.Duration, cpis int, err error) {
	sc, p := r.scene, r.w.params
	beamAz := sc.BeamAzimuths()
	gain := make([]float64, p.K)
	for i := range gain {
		gain[i] = 1 / sc.RangeGain(i)
	}
	mf := stap.NewMatchedFilter(p.K, sc.Chirp())

	begin := time.Now()
	var stamps [][7]time.Time
	for j, jb := range r.pool {
		if j > 0 && time.Since(begin) > probeBudget {
			break
		}
		easy := stap.NewEasyWeightState(p, beamAz)
		hard := stap.NewHardWeightState(p, beamAz)
		next := stap.SteeringWeights(p, beamAz)
		for c, raw := range jb.cpis {
			var t [7]time.Time
			t[0] = time.Now()
			dop := stap.DopplerFilter(p, raw, gain)
			t[1] = time.Now()
			beams := stap.Beamform(p, dop.Reorder(radar.BeamformInOrder), next)
			t[2] = time.Now()
			power := stap.PulseCompress(p, beams, mf)
			t[3] = time.Now()
			dets := stap.CFAR(p, power)
			t[4] = time.Now()
			easy.Observe(dop)
			ew := easy.Compute()
			t[5] = time.Now()
			hard.Observe(dop)
			hw := hard.Compute()
			t[6] = time.Now()
			next = &stap.Weights{Easy: ew, Hard: hw}
			if firstDiff([][]stap.Detection{dets}, jb.want[c:c+1]) >= 0 {
				return times, 0, fmt.Errorf("%s: kernel probe: job %d CPI %d differs from the serial reference", r.w.name, j, c)
			}
			stamps = append(stamps, t)
		}
	}
	root := tr.add("probe.stap", begin, time.Now(), -1, -1, laneStap)
	for _, t := range stamps {
		for k, name := range stapKernels {
			tr.add("stap."+name, t[k], t[k+1], root, -1, laneStap)
			times[k] += t[k+1].Sub(t[k])
		}
	}
	return times, len(stamps), nil
}

// probePipeline runs the batch pipeline once over the pool's cubes with
// the workload's assignment and reads the per-task phase times and the
// message accounting from its Result.
func probePipeline(r *rig, tr *tracer) ([]metric, error) {
	var cubes []*cube.Cube
	for _, jb := range r.pool {
		cubes = append(cubes, jb.cpis...)
	}
	t0 := time.Now()
	res, err := pipeline.Run(pipeline.Config{
		Scene:     r.scene,
		Assign:    r.w.assign,
		NumCPIs:   len(cubes),
		Warmup:    4,
		Cooldown:  2,
		RawSource: func(i int) *cube.Cube { return cubes[i] },
	})
	if err != nil {
		return nil, fmt.Errorf("%s: pipeline.Run probe: %w", r.w.name, err)
	}
	tr.add("probe.pipeline.Run", t0, time.Now(), -1, -1, lanePipeline)

	var recv, comp, send time.Duration
	for _, s := range res.Stats {
		recv += s.Recv
		comp += s.Comp
		send += s.Send
	}
	ms := []metric{
		{"pipeline.recv_ms", millis(recv), "ms"},
		{"pipeline.comp_ms", millis(comp), "ms"},
		{"pipeline.send_ms", millis(send), "ms"},
		{"pipeline.overhead_frac", 1 - safeDiv(float64(comp), float64(recv+comp+send)), "ratio"},
		{"pipeline.msgs_per_cpi", float64(res.Messages) / float64(len(cubes)), "count"},
		{"pipeline.bytes_per_cpi", float64(res.BytesSent) / float64(len(cubes)), "B"},
		{"pipeline.eq_cpi_per_s", res.EquationThroughput(), "1/s"},
	}
	for t, s := range res.Stats {
		name := fmt.Sprintf("pipeline.task%d.", t)
		ms = append(ms,
			metric{name + "recv_ms", millis(s.Recv), "ms"},
			metric{name + "comp_ms", millis(s.Comp), "ms"},
			metric{name + "send_ms", millis(s.Send), "ms"},
		)
	}
	return ms, nil
}

// probeRedist times the Doppler-to-beamforming reorganisation by calling
// redist directly with the block layout the workload's assignment gives
// the pipeline: every Doppler worker's slab packed for every easy and hard
// beamforming worker, then every beamforming worker's pieces assembled.
// It returns the summed pack and assemble times and the CPI count.
func probeRedist(r *rig, tr *tracer) (pack, assemble time.Duration, cpis int) {
	p, a := r.w.params, r.w.assign
	kBlocks := cube.BlockPartition(p.K, a[pipeline.TaskDoppler])
	sides := []struct {
		bins     []int
		pos      []cube.Block
		channels int
	}{
		{p.EasyBins(), cube.BlockPartition(p.Neasy, a[pipeline.TaskEasyBF]), p.J},
		{p.HardBins(), cube.BlockPartition(p.Nhard, a[pipeline.TaskHardBF]), 2 * p.J},
	}
	begin := time.Now()
	for _, jb := range r.pool {
		if cpis > 0 && time.Since(begin) > probeBudget {
			break
		}
		for _, raw := range jb.cpis {
			stag := stap.DopplerFilter(p, raw, nil)
			slabs := make([]*cube.Cube, len(kBlocks))
			for i, blk := range kBlocks {
				slabs[i] = stag.SliceAxis0(blk)
			}
			for _, side := range sides {
				for _, pos := range side.pos {
					t0 := time.Now()
					pieces := make([]*cube.Cube, len(kBlocks))
					for i, blk := range kBlocks {
						pieces[i] = redist.PackForBeamform(p, slabs[i], blk, side.bins[pos.Lo:pos.Hi], side.channels)
					}
					t1 := time.Now()
					redist.AssembleBeamformInput(p, pieces, kBlocks, side.channels)
					pack += t1.Sub(t0)
					assemble += time.Since(t1)
				}
			}
			cpis++
		}
	}
	tr.add("probe.redist", begin, time.Now(), -1, -1, laneRedist)
	return pack, assemble, cpis
}

// codecCost is the measured cost of one value's frame: mean encode and
// decode time, its size on the wire, and how many frames were timed.
type codecCost struct {
	encMs, decMs float64
	bytes        int
	frames       int
}

// roundTrip writes v as a frame into a buffer and reads it back into out,
// up to 100 times or until the probe budget is spent.
func roundTrip(v, out any) (codecCost, error) {
	var c codecCost
	var enc, dec time.Duration
	var buf bytes.Buffer
	for begin := time.Now(); c.frames < 100 && (c.frames == 0 || time.Since(begin) < probeBudget); c.frames++ {
		buf.Reset()
		t0 := time.Now()
		if err := wire.WriteFrame(&buf, v); err != nil {
			return c, err
		}
		t1 := time.Now()
		c.bytes = buf.Len()
		if err := wire.ReadFrame(&buf, out); err != nil {
			return c, err
		}
		enc += t1.Sub(t0)
		dec += time.Since(t1)
	}
	c.encMs, c.decMs = msPer(enc, c.frames), msPer(dec, c.frames)
	return c, nil
}

// probeWire times wire.WriteFrame/ReadFrame into a bytes.Buffer for one
// raw CPI cube and for one serving request and response holding the
// workload's job, and counts the codec's allocations per cube frame.
func probeWire(r *rig, tr *tracer) ([]metric, error) {
	jb := r.pool[0]
	begin := time.Now()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	raw, err := roundTrip(jb.cpis[0], &cube.Cube{})
	if err != nil {
		return nil, fmt.Errorf("%s: wire probe (cube): %w", r.w.name, err)
	}
	runtime.ReadMemStats(&m1)
	req, err := roundTrip(&serve.Request{ID: 1, CPIs: jb.cpis}, &serve.Request{})
	if err != nil {
		return nil, fmt.Errorf("%s: wire probe (request): %w", r.w.name, err)
	}
	resp, err := roundTrip(&serve.Response{ID: 1, Detections: jb.want, QueueNs: 1, ServiceNs: 1}, &serve.Response{})
	if err != nil {
		return nil, fmt.Errorf("%s: wire probe (response): %w", r.w.name, err)
	}
	tr.add("probe.wire", begin, time.Now(), -1, -1, laneWire)
	return []metric{
		{"wire.encode_ms", raw.encMs, "ms"},
		{"wire.decode_ms", raw.decMs, "ms"},
		{"wire.bytes_per_cube", float64(raw.bytes), "B"},
		{"wire.allocs_per_frame", float64(m1.Mallocs-m0.Mallocs) / float64(raw.frames), "count"},
		{"wire.request_ms", req.encMs + req.decMs, "ms"},
		{"wire.request_bytes", float64(req.bytes), "B"},
		{"wire.response_ms", resp.encMs + resp.decMs, "ms"},
		{"wire.response_bytes", float64(resp.bytes), "B"},
	}, nil
}

// linkTotals sums the transfer counters of every link endpoint of a
// distributed replica: the coordinator's and both nodes'. Each message is
// counted once, at its sender (serialise) and once at its receiver
// (deserialise); transmit time is the socket time of both ends.
type linkTotals struct {
	msgs, bytes                     int64
	serNs, deserNs, xmitNs, stallNs int64
	// rttMs is the mean heartbeat round-trip estimate over the links that
	// have one — a gauge, not a running total.
	rttMs float64
}

// distTotals reads the counters once the links have gone quiet: after a
// job's last report returns, the weight tasks still ship the weights they
// trained for a next CPI that never comes, and those frames belong to the
// window that ran the job.
func distTotals(tg *target) linkTotals {
	if tg.replica == nil {
		return linkTotals{}
	}
	t := readLinks(tg)
	for {
		time.Sleep(10 * time.Millisecond)
		next := readLinks(tg)
		if next.msgs == t.msgs {
			return next
		}
		t = next
	}
}

func readLinks(tg *target) linkTotals {
	var t linkTotals
	links := tg.replica.LinkStats()
	for _, n := range tg.nodes {
		links = append(links, n.Snapshot().Links...)
	}
	var rtts []float64
	for _, l := range links {
		t.msgs += l.MsgsSent
		t.bytes += l.BytesSent
		t.serNs += l.SerNs
		t.deserNs += l.DeserNs
		t.xmitNs += l.XmitNs
		t.stallNs += l.StallNs
		if l.RTTNs > 0 {
			rtts = append(rtts, float64(l.RTTNs)/1e6)
		}
	}
	t.rttMs = mean(rtts)
	return t
}

func (a linkTotals) sub(b linkTotals) linkTotals {
	return linkTotals{
		msgs: a.msgs - b.msgs, bytes: a.bytes - b.bytes,
		serNs: a.serNs - b.serNs, deserNs: a.deserNs - b.deserNs,
		xmitNs: a.xmitNs - b.xmitNs, stallNs: a.stallNs - b.stallNs,
	}
}

// serveTotals snapshots the server's counters (zero without a server).
func serveTotals(tg *target) serve.Snapshot {
	if tg.server == nil {
		return serve.Snapshot{}
	}
	return tg.server.Metrics().Snapshot()
}

// serveMetrics splits the traced window's client latency into the
// server-reported queue and service time and the remainder — request and
// response codec, sockets and response demultiplexing — as means (which
// sum to the mean client latency) and medians, and reads the admission
// and utilisation counters across the window.
func serveMetrics(win window, s0, s1 serve.Snapshot) []metric {
	var lat, queue, service, protocol []float64
	for _, rec := range win.recs {
		if !rec.ok {
			continue
		}
		l, q, s := millis(rec.end.Sub(rec.start)), millis(rec.queue), millis(rec.service)
		lat, queue, service, protocol = append(lat, l), append(queue, q), append(service, s), append(protocol, l-q-s)
	}
	ms := []metric{
		{"serve.client_ms", mean(lat), "ms"},
		{"serve.queue_ms", mean(queue), "ms"},
		{"serve.service_ms", mean(service), "ms"},
		{"serve.protocol_ms", mean(protocol), "ms"},
		{"serve.queue_share", safeDiv(mean(queue), mean(lat)), "ratio"},
		{"serve.service_share", safeDiv(mean(service), mean(lat)), "ratio"},
		{"serve.protocol_share", safeDiv(mean(protocol), mean(lat)), "ratio"},
		{"serve.queue_p50_ms", median(queue), "ms"},
		{"serve.service_p50_ms", median(service), "ms"},
		{"serve.protocol_p50_ms", median(protocol), "ms"},
		{"serve.accepted", float64(s1.Accepted - s0.Accepted), "count"},
		{"serve.rejected", float64(s1.Rejected - s0.Rejected), "count"},
		{"serve.completed", float64(s1.Completed - s0.Completed), "count"},
		{"serve.failed", float64(s1.Failed - s0.Failed), "count"},
	}
	// Utilisation is busy time over uptime since start; the window's share
	// is the difference of the two products over the window's length.
	span := s1.UptimeSec - s0.UptimeSec
	var busy float64
	for i := range s1.Replicas {
		u := s1.Replicas[i].Utilization * s1.UptimeSec
		if i < len(s0.Replicas) {
			u -= s0.Replicas[i].Utilization * s0.UptimeSec
		}
		u = safeDiv(u, span)
		busy += u
		ms = append(ms, metric{fmt.Sprintf("serve.replica%d_util", i), u, "ratio"})
	}
	ms = append(ms, metric{"serve.busy_frac", safeDiv(busy, float64(len(s1.Replicas))), "ratio"})
	return ms
}
