package pipeline

import (
	"time"

	"pstap/internal/cube"
	"pstap/internal/fault"
	"pstap/internal/linalg"
	"pstap/internal/mp"
	"pstap/internal/obs"
	"pstap/internal/radar"
	"pstap/internal/redist"
	"pstap/internal/stap"
)

// env is what the workers of one pipeline instance share: the world they
// message through, the routing tables, the scene-derived constants and the
// instance's telemetry, fault and supervision planes.
type env struct {
	world   *mp.World
	topo    *topology
	scene   *radar.Scene
	threads int
	obs     *obs.Collector  // nil: spans are not journaled
	fault   *fault.Injector // nil: no injected faults
	sup     *supervisor
	gain    []float64 // per-range-gate gain correction applied by Doppler
	beamAz  []float64
	depth   int // slots in every sender's ring: the in-flight window + 1 (see ring)
}

// stage is one worker's per-CPI behaviour — the receive, compute and send
// phases of the Figure 10 loop — as three callables that runStage drives.
// A stage constructor keeps the worker's state (communicator, weight
// history, matched filter, sender lists) in closure variables and sizes
// every buffer the loop touches once, before the first CPI: a
// stap.Workspace for its kernels, the buffers it assembles its inputs
// into, and a ring of per-CPI output payloads (see ring). The callables
// use the kernels' Workspace and …Into forms, so a warm loop allocates
// nothing but the messages themselves.
type stage struct {
	// recv blocks for this CPI's inputs, unpacks them and returns their
	// control flags. On EOF it returns as soon as the flags are known.
	recv func(cpi int) ctl
	// compute runs the task's kernel on what recv assembled.
	compute func()
	// send packs and ships compute's outputs to the successor workers with
	// the control flags fwd. When fwd.EOF it sends the same destinations a
	// bare control message instead, so a task's routing is written once
	// for data and for the drain; the weight stages, whose streams carry
	// no control flags, send nothing then, nor on a job's last CPI.
	send func(cpi int, fwd ctl)
}

// runStage is the worker loop of every task: per CPI, receive → compute
// fault → compute → send → span. It is the only place an iteration is
// timed, a compute fault fires and a loop ends: on the EOF control
// message, after forwarding it downstream. The supervisor marks a CPI in
// progress before its receive, so a fault or stall in any phase is
// attributed to it. An injected compute fault for (task, worker, c) —
// the pipeline-side half of the fault plane; the mp send hook corrupts
// messages — fires after T1, once c's inputs have arrived (a slow one is
// compute time), so it fires under the job that submitted c, never in a
// stream no job has fed that far.
func (e *env) runStage(task, w int, st stage) {
	for cpi := 0; ; cpi++ {
		t0 := time.Now()
		e.sup.enter(task, w, cpi)
		c := st.recv(cpi)
		if c.EOF {
			st.send(cpi, c.next())
			return
		}
		t1 := time.Now()
		if e.fault != nil {
			e.fault.Compute(task, w, cpi)
		}
		st.compute()
		t2 := time.Now()
		st.send(cpi, c.next())
		t3 := time.Now()
		if e.obs != nil {
			// The CPI's control message labels the span with its
			// trace/hop lineage.
			e.obs.RecordTracedSpan(task, w, cpi, c.Trace, c.Hop, t0, t1, t2, t3)
		}
	}
}

// ring is a sender's per-CPI payload buffers: the payload of CPI c is
// built in slot c % len(r) and handed to its messages by reference, so a
// warm worker allocates no payload. Every ring of a stream has depth
// window+1, and that is what makes the reuse safe:
//
//   - A payload sent at CPI c is dead once CPI c+1 has completed at the
//     collector. Receivers copy or consume the data payloads of CPI c
//     while processing CPI c (training rows are stacked into the weight
//     worker's buffers, pieces assembled into the beamformer's slab, beam
//     and power rows pasted into the next task's block, detections
//     appended to the collector's report); weights shipped at CPI c are
//     applied by the beamformers at CPI c+1. That holds across jobs too:
//     no weights are shipped at a job's last CPI, so none wait for a CPI
//     that will not read them.
//   - A sender writes slot c % depth while processing CPI c, which the
//     feeder admitted only after CPI c−window completed (the stream's
//     in-flight window). The slot's previous payload is CPI c−window−1's,
//     dead since CPI c−window completed.
//   - A payload crossing to another process is encoded synchronously
//     inside Send (dist's link.sendData), so it is dead when Send returns.
//     The receiving process decodes it into a slot of its own per-edge
//     ring of the same depth (dist's edgeSlots), which the same bound
//     makes safe, so it covers a split replica too.
//
// A shallower ring lets a sender overwrite a payload its receiver is still
// reading. sync.Pool is not used: its reuse depends on GC timing, the
// ring's on nothing but the CPI index.
type ring[T any] []T

// newRing builds the stream's ring of per-CPI buffers, one mk() per slot.
func newRing[T any](e *env, mk func() T) ring[T] {
	r := make(ring[T], e.depth)
	for i := range r {
		r[i] = mk()
	}
	return r
}

// at returns CPI cpi's slot.
func (r ring[T]) at(cpi int) T { return r[cpi%len(r)] }

// matrices returns a [segment][binIdx] table of empty matrices, each sized
// by its first use.
func matrices(segs, bins int) [][]*linalg.Matrix {
	t := make([][]*linalg.Matrix, segs)
	for seg := range t {
		t[seg] = make([]*linalg.Matrix, bins)
		for i := range t[seg] {
			t[seg][i] = new(linalg.Matrix)
		}
	}
	return t
}

// dopplerOut is one ring slot of a Doppler worker's payloads. Each buffer's
// layout, row-major with the last axis unit stride:
//   - easy[dw][bi], hard[dw][seg][bi]: training cell x channel (J easy, 2J
//     hard), cells in ascending range order.
//   - pieces[side][bw]: bin x range x channel (radar.BeamformInOrder) over
//     the bw-th worker's bins and this worker's ranges. The worker's own
//     slab is range x channel x Doppler (radar.StaggeredOrder), so filling
//     a piece is the corner turn (redist.PackForBeamformInto).
type dopplerOut struct {
	easy   [][]*linalg.Matrix   // [easy weight worker][binIdx]: training rows
	hard   [][][]*linalg.Matrix // [hard weight worker][segment][binIdx]
	pieces [2][]*cube.Cube      // [side][bf worker]: packed Doppler-major pieces
}

// dopplerStage is one processor of task 0. Per CPI: receive its raw range
// slab, Doppler-filter it into the worker's staggered slab, then perform
// data collection (training subsets for the weight tasks) and
// reorganization (Doppler-major pieces for the beamforming tasks) into the
// CPI's ring slot and send — the all-to-all personalized phase. The
// control flags of the incoming slab (job reset and last CPI, stream EOF)
// are forwarded to every successor worker. A CPI that trains no weights
// (a job's last) sends the weight tasks its flags without rows.
func (e *env) dopplerStage(w int) stage {
	topo, p := e.topo, e.topo.p
	comm := e.world.Comm(topo.groups[TaskDoppler].Global(w))
	blk := topo.kBlocks[w]
	var ws stap.Workspace
	var raw *cube.Cube
	stag := cube.New(radar.StaggeredOrder, blk.Size(), 2*p.J, p.N)
	out := newRing(e, func() dopplerOut {
		var o dopplerOut
		for _, pos := range topo.easy.wPos {
			o.easy = append(o.easy, matrices(1, pos.Size())[0])
		}
		for _, pos := range topo.hard.wPos {
			o.hard = append(o.hard, matrices(topo.hard.segs, pos.Size()))
		}
		for si, sd := range topo.sides() {
			for _, pos := range sd.bfPos {
				o.pieces[si] = append(o.pieces[si], cube.New(radar.BeamformInOrder, pos.Size(), blk.Size(), sd.channels))
			}
		}
		return o
	})
	return stage{
		recv: func(cpi int) ctl {
			msg := comm.Recv(topo.driver, tag(tagRaw, cpi)).(*rawMsg)
			raw = msg.Slab
			return msg.Ctl
		},
		compute: func() { ws.DopplerFilterBlock(p, stag, raw, e.gain, blk, e.threads) },
		send: func(cpi int, fwd ctl) {
			o := out.at(cpi)
			for dw, pos := range topo.easy.wPos {
				m := &easyTrainMsg{Ctl: fwd}
				if fwd.trains() {
					ws.ExtractEasyRows(o.easy[dw], p, stag, blk, binsAt(topo.easy.bins, pos))
					m.Rows = o.easy[dw]
				}
				comm.Send(topo.groups[TaskEasyWeight].Global(dw), tag(tagEasyTrain, cpi), m)
			}
			for dw, pos := range topo.hard.wPos {
				m := &hardTrainMsg{Ctl: fwd}
				if fwd.trains() {
					ws.ExtractHardRows(o.hard[dw], p, stag, blk, binsAt(topo.hard.bins, pos))
					m.Rows = o.hard[dw]
				}
				comm.Send(topo.groups[TaskHardWeight].Global(dw), tag(tagHardTrain, cpi), m)
			}
			for si, sd := range topo.sides() {
				for dw, pos := range sd.bfPos {
					m := &bfDataMsg{Ctl: fwd}
					if !fwd.EOF {
						m.Piece = o.pieces[si][dw]
						redist.PackForBeamformInto(m.Piece, p, stag, blk, binsAt(sd.bins, pos), sd.channels)
					}
					comm.Send(topo.groups[sd.bfTask].Global(dw), tag(sd.dataTag, cpi), m)
				}
			}
		},
	}
}

// weightOut is one ring slot of a weight worker's output: its weights
// [segment][binIdx] and, per beamforming worker, the share of them that
// worker owns (nil when they share no bin) — the message payload.
type weightOut struct {
	ws    [][]*linalg.Matrix
	share [][][]*linalg.Matrix // [bf worker][segment]
}

// weightStage is one processor of a weight task (1 easy, 2 hard), written
// once over the side's table: assemble training rows from every Doppler
// processor (stacked in rank order = ascending range order) into the
// worker's own buffers, fold them into the training state and solve for
// its bins' weights — constrained least squares over the training history
// on the easy side, the recursive QR update with exponential forgetting
// per (segment, bin) on the hard side — into the CPI's ring slot, and ship
// them to the beamforming workers that own those bins, for the *next* CPI
// (temporal dependencies TD(1,3) and TD(2,4)). A job reset restarts the
// training state. No weights cross a job boundary: a job's last CPI has
// no next CPI in the job, so on it the worker receives the flags, trains
// nothing and sends nothing.
func (e *env) weightStage(sd *side, w int) stage {
	topo, p := e.topo, e.topo.p
	comm := e.world.Comm(topo.groups[sd.wTask].Global(w))
	pos := sd.wPos[w]
	bins := binsAt(sd.bins, pos)
	train := sd.train(p, e.beamAz, bins)
	p0 := topo.groups[TaskDoppler].N
	perSrc := make([][][]*linalg.Matrix, p0) // [Doppler worker][segment][binIdx], the received rows
	for s := range perSrc {
		perSrc[s] = make([][]*linalg.Matrix, sd.segs)
	}
	parts := make([]*linalg.Matrix, p0)
	stacked := matrices(sd.segs, len(bins))
	out := newRing(e, func() weightOut {
		o := weightOut{ws: matrices(sd.segs, len(bins)), share: make([][][]*linalg.Matrix, len(sd.bfPos))}
		for bw, bfPos := range sd.bfPos {
			if ov := redist.Intersect(pos, bfPos); ov.Size() > 0 {
				o.share[bw] = make([][]*linalg.Matrix, sd.segs)
				for seg := range o.share[bw] {
					o.share[bw][seg] = o.ws[seg][ov.Lo-pos.Lo : ov.Hi-pos.Lo]
				}
			}
		}
		return o
	})
	var cur weightOut
	var trains bool // this CPI trains weights (see ctl.trains)
	return stage{
		recv: func(cpi int) ctl {
			var c ctl
			for s := range perSrc {
				c = sd.rows(comm.Recv(topo.groups[TaskDoppler].Global(s), tag(sd.trainTag, cpi)), perSrc[s])
			}
			if trains = c.trains(); !trains {
				return c
			}
			if c.Reset {
				train.reset()
			}
			for seg := range stacked {
				for bi := range bins {
					for s := range perSrc {
						parts[s] = perSrc[s][seg][bi]
					}
					linalg.VStackInto(stacked[seg][bi], parts...)
				}
			}
			cur = out.at(cpi)
			return c
		},
		compute: func() {
			if trains {
				train.step(stacked, cur.ws)
			}
		},
		send: func(cpi int, fwd ctl) {
			if !trains {
				return
			}
			for bw, share := range cur.share {
				if share != nil {
					comm.Send(topo.groups[sd.bfTask].Global(bw), tag(sd.wTag, cpi+1), sd.weightsMsg(share))
				}
			}
		},
	}
}

// bfOut is one ring slot of a beamforming worker's output: the beamformed
// rows of its bins and, per pulse-compression worker, the view of the rows
// that worker owns (nil when none) — the message payload.
type bfOut struct {
	beams *cube.Cube
	views []*cube.Cube
}

// bfStage is one processor of a beamforming task (3 easy, 4 hard), written
// once over the side's table: assemble its bins' Doppler-major data from
// every Doppler processor into the worker's slab, receive this CPI's
// weights (steering on a job reset), beamform into the CPI's ring slot,
// and forward rows to the pulse-compression workers owning the
// corresponding global bins. Both sides of that last transfer partition
// along N, so it needs no reorganization (the paper's observation in
// Section 5.4). Weights are received iff the CPI is not a job's first:
// none cross a job boundary, because the weight workers send none on a
// job's last CPI (see ctl).
func (e *env) bfStage(sd *side, w int) stage {
	topo, p := e.topo, e.topo.p
	comm := e.world.Comm(topo.groups[sd.bfTask].Global(w))
	pos := sd.bfPos[w]
	bins := binsAt(sd.bins, pos)
	steer := sd.steer(stap.SteeringWeights(p, e.beamAz))
	pieces := make([]*cube.Cube, topo.groups[TaskDoppler].N)
	ws := make([][]*linalg.Matrix, sd.segs) // [segment][binIdx]: this CPI's weights, by reference
	for seg := range ws {
		ws[seg] = make([]*linalg.Matrix, len(bins))
	}
	slab := cube.New(radar.BeamformInOrder, len(bins), p.K, sd.channels)
	var bws stap.Workspace
	out := newRing(e, func() bfOut {
		o := bfOut{beams: cube.New(radar.BeamOrder, len(bins), p.M, p.K), views: make([]*cube.Cube, len(topo.pcBlocks))}
		for pw, blk := range topo.pcBlocks {
			if lo, hi := redist.IntersectList(bins, blk); lo < hi {
				o.views[pw] = redist.SliceBins(o.beams, lo, hi)
			}
		}
		return o
	})
	var cur bfOut
	return stage{
		recv: func(cpi int) ctl {
			var c ctl
			for s := range pieces {
				msg := comm.Recv(topo.groups[TaskDoppler].Global(s), tag(sd.dataTag, cpi)).(*bfDataMsg)
				pieces[s], c = msg.Piece, msg.Ctl
			}
			if c.EOF {
				return c
			}
			if c.Reset {
				for seg := range ws {
					copy(ws[seg], steer[seg][pos.Lo:pos.Hi])
				}
			} else {
				for ww, wPos := range sd.wPos {
					ov := redist.Intersect(pos, wPos)
					if ov.Size() == 0 {
						continue
					}
					msg := comm.Recv(topo.groups[sd.wTask].Global(ww), tag(sd.wTag, cpi))
					for seg := range ws {
						copy(ws[seg][ov.Lo-pos.Lo:ov.Hi-pos.Lo], sd.weights(msg, seg))
					}
				}
			}
			redist.AssembleBeamformInputInto(slab, p, pieces, topo.kBlocks, sd.channels)
			cur = out.at(cpi)
			return c
		},
		compute: func() { sd.beamform(&bws, p, slab, ws, cur.beams, e.threads) },
		send: func(cpi int, fwd ctl) {
			for pw, blk := range topo.pcBlocks {
				lo, hi := redist.IntersectList(bins, blk)
				if lo >= hi {
					continue
				}
				m := &beamMsg{Ctl: fwd}
				if !fwd.EOF {
					m.Slab, m.GlobalBins = cur.views[pw], bins[lo:hi]
				}
				comm.Send(topo.groups[TaskPulseComp].Global(pw), tag(sd.beamTag, cpi), m)
			}
		},
	}
}

// pcOut is one ring slot of a pulse-compression worker's output: its power
// rows and, per CFAR worker, the view of the rows that worker owns.
type pcOut struct {
	power *cube.RealCube
	views []*cube.RealCube
}

// pulseCompStage is one processor of task 5: assemble its global-bin
// block from the beamforming workers, fast-convolve with the matched
// filter, square to power into the CPI's ring slot, and forward to the
// CFAR workers.
func (e *env) pulseCompStage(w int) stage {
	topo, p := e.topo, e.topo.p
	comm := e.world.Comm(topo.groups[TaskPulseComp].Global(w))
	blk := topo.pcBlocks[w]
	mf := stap.NewMatchedFilter(p.K, e.scene.Chirp())

	// Which beamforming workers send to this block, and on which stream?
	type pcSrc struct{ rank, stream int }
	var senders []pcSrc
	for _, sd := range topo.sides() {
		for bw, bfPos := range sd.bfPos {
			if lo, hi := redist.IntersectList(binsAt(sd.bins, bfPos), blk); lo < hi {
				senders = append(senders, pcSrc{rank: topo.groups[sd.bfTask].Global(bw), stream: sd.beamTag})
			}
		}
	}
	// Every global bin of blk is some sender's, so the rows below overwrite
	// all of local each CPI.
	local := cube.New(radar.BeamOrder, blk.Size(), p.M, p.K)
	var pws stap.Workspace
	out := newRing(e, func() pcOut {
		o := pcOut{power: cube.NewReal(radar.BeamOrder, blk.Size(), p.M, p.K), views: make([]*cube.RealCube, len(topo.cfBlocks))}
		for cw, cblk := range topo.cfBlocks {
			if ov := redist.Intersect(blk, cblk); ov.Size() > 0 {
				o.views[cw] = o.power.ViewAxis0(cube.Block{Lo: ov.Lo - blk.Lo, Hi: ov.Hi - blk.Lo})
			}
		}
		return o
	})
	var cur pcOut
	return stage{
		recv: func(cpi int) ctl {
			var c ctl
			for _, s := range senders {
				msg := comm.Recv(s.rank, tag(s.stream, cpi)).(*beamMsg)
				c = c.merge(msg.Ctl)
				for i, d := range msg.GlobalBins {
					for m := 0; m < p.M; m++ {
						copy(local.Vec(d-blk.Lo, m), msg.Slab.Vec(i, m))
					}
				}
			}
			cur = out.at(cpi)
			return c
		},
		compute: func() { pws.PulseCompressRows(p, local, mf, cur.power, 0, blk.Size(), e.threads) },
		send: func(cpi int, fwd ctl) {
			for cw, cblk := range topo.cfBlocks {
				ov := redist.Intersect(blk, cblk)
				if ov.Size() == 0 {
					continue
				}
				m := &powerMsg{Ctl: fwd}
				if !fwd.EOF {
					m.Slab, m.Blk = cur.views[cw], ov
				}
				comm.Send(topo.groups[TaskCFAR].Global(cw), tag(tagPower, cpi), m)
			}
		},
	}
}

// cfarStage is one processor of task 6: assemble power rows, run the
// sliding-window detector into the CPI's ring slot, and emit the detection
// report to the pipeline output.
func (e *env) cfarStage(w int) stage {
	topo, p := e.topo, e.topo.p
	comm := e.world.Comm(topo.groups[TaskCFAR].Global(w))
	blk := topo.cfBlocks[w]
	var senders []int
	for pw, pblk := range topo.pcBlocks {
		if redist.Intersect(pblk, blk).Size() > 0 {
			senders = append(senders, topo.groups[TaskPulseComp].Global(pw))
		}
	}
	// The senders' blocks tile blk, so the pastes overwrite all of local.
	local := cube.NewReal(radar.BeamOrder, blk.Size(), p.M, p.K)
	var cws stap.Workspace
	dets := newRing(e, func() *[]stap.Detection { return new([]stap.Detection) })
	var cur *[]stap.Detection
	return stage{
		recv: func(cpi int) ctl {
			var c ctl
			for _, src := range senders {
				msg := comm.Recv(src, tag(tagPower, cpi)).(*powerMsg)
				c = c.merge(msg.Ctl)
				if !msg.Ctl.EOF {
					local.PasteAxis0(cube.Block{Lo: msg.Blk.Lo - blk.Lo, Hi: msg.Blk.Hi - blk.Lo}, msg.Slab)
				}
			}
			cur = dets.at(cpi)
			return c
		},
		compute: func() {
			*cur = (*cur)[:0]
			cws.CFARRows(p, local, blk.Lo, blk.Hi, true, cur, e.threads)
		},
		send: func(cpi int, fwd ctl) {
			m := &detMsg{Ctl: fwd}
			if !fwd.EOF {
				m.Dets = *cur
			}
			comm.Send(topo.driver, tag(tagDet, cpi), m)
		},
	}
}
