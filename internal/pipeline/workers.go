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
}

// emit journals one worker-CPI span. tr is the control message the worker
// received for this CPI — its trace/hop lineage labels the span.
func (e *env) emit(task, w, cpi int, s Span, tr ctl) {
	if e.obs != nil {
		e.obs.RecordTracedSpan(task, w, cpi, tr.Trace, tr.Hop, s.T0, s.T1, s.T2, s.T3)
	}
}

// stage is one worker's per-CPI behaviour — the receive, compute and send
// phases of the Figure 10 loop — as three callables that runStage drives.
// A stage constructor keeps the worker's state (communicator, weight
// history, matched filter, sender lists, the CPI's inputs and outputs) in
// closure variables.
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
	// no control flags, send nothing then.
	send func(cpi int, fwd ctl)
}

// runStage is the worker loop of every task: per CPI, fault point →
// receive → compute → send → span. It is the only place an iteration is
// timed, a compute fault fires (after T0, before the receive) and a loop
// ends: on the EOF control message, after forwarding it downstream.
func (e *env) runStage(task, w int, st stage) {
	for cpi := 0; ; cpi++ {
		t0 := time.Now()
		e.faultPoint(task, w, cpi)
		c := st.recv(cpi)
		if c.EOF {
			st.send(cpi, c.next())
			return
		}
		t1 := time.Now()
		st.compute()
		t2 := time.Now()
		st.send(cpi, c.next())
		t3 := time.Now()
		e.emit(task, w, cpi, Span{T0: t0, T1: t1, T2: t2, T3: t3}, c)
	}
}

// dopplerStage is one processor of task 0. Per CPI: receive its raw range
// slab, Doppler-filter it, then perform data collection (training subsets
// for the weight tasks) and reorganization (Doppler-major pieces for the
// beamforming tasks) and send — the all-to-all personalized phase. The
// control flags of the incoming slab (job reset, stream EOF) are forwarded
// to every successor worker.
func (e *env) dopplerStage(w int) stage {
	topo, p := e.topo, e.topo.p
	comm := e.world.Comm(topo.groups[TaskDoppler].Global(w))
	blk := topo.kBlocks[w]
	var raw, stag *cube.Cube
	return stage{
		recv: func(cpi int) ctl {
			msg := comm.Recv(topo.driver, tag(tagRaw, cpi)).(rawMsg)
			raw = msg.Slab
			return msg.Ctl
		},
		compute: func() { stag = stap.DopplerFilterBlockThreaded(p, raw, e.gain, blk, e.threads) },
		send: func(cpi int, fwd ctl) {
			for dw, pos := range topo.easy.wPos {
				m := easyTrainMsg{Ctl: fwd}
				if !fwd.EOF {
					m.Rows = stap.ExtractEasyRows(p, stag, blk, binsAt(topo.easy.bins, pos))
				}
				comm.Send(topo.groups[TaskEasyWeight].Global(dw), tag(tagEasyTrain, cpi), m)
			}
			for dw, pos := range topo.hard.wPos {
				m := hardTrainMsg{Ctl: fwd}
				if !fwd.EOF {
					m.Rows = stap.ExtractHardRows(p, stag, blk, binsAt(topo.hard.bins, pos))
				}
				comm.Send(topo.groups[TaskHardWeight].Global(dw), tag(tagHardTrain, cpi), m)
			}
			for _, sd := range topo.sides() {
				for dw, pos := range sd.bfPos {
					m := bfDataMsg{Ctl: fwd}
					if !fwd.EOF {
						m.Piece = redist.PackForBeamform(p, stag, blk, binsAt(sd.bins, pos), sd.channels)
					}
					comm.Send(topo.groups[sd.bfTask].Global(dw), tag(sd.dataTag, cpi), m)
				}
			}
		},
	}
}

// weightStage is one processor of a weight task (1 easy, 2 hard), written
// once over the side's table: assemble training rows from every Doppler
// processor (stacked in rank order = ascending range order), fold them
// into the training state and solve for its bins' weights — constrained
// least squares over the training history on the easy side, the recursive
// QR update with exponential forgetting per (segment, bin) on the hard
// side — and ship them to the beamforming workers that own those bins, for
// the *next* CPI (temporal dependencies TD(1,3) and TD(2,4)). A job reset
// re-creates the training state so independent jobs in a stream see
// exactly the fresh-start semantics of a new instance.
func (e *env) weightStage(sd *side, w int) stage {
	topo, p := e.topo, e.topo.p
	comm := e.world.Comm(topo.groups[sd.wTask].Global(w))
	pos := sd.wPos[w]
	bins := binsAt(sd.bins, pos)
	train := sd.train(p, e.beamAz, bins)
	p0 := topo.groups[TaskDoppler].N
	var stacked, ws [][]*linalg.Matrix // [segment][binIdx]
	return stage{
		recv: func(cpi int) ctl {
			var c ctl
			perSrc := make([][][]*linalg.Matrix, p0)
			for s := range perSrc {
				perSrc[s], c = sd.rows(comm.Recv(topo.groups[TaskDoppler].Global(s), tag(sd.trainTag, cpi)))
			}
			if c.EOF {
				return c
			}
			if c.Reset && cpi > 0 {
				train = sd.train(p, e.beamAz, bins)
			}
			stacked = make([][]*linalg.Matrix, sd.segs)
			parts := make([]*linalg.Matrix, p0)
			for seg := range stacked {
				stacked[seg] = make([]*linalg.Matrix, len(bins))
				for bi := range bins {
					for s := range perSrc {
						parts[s] = perSrc[s][seg][bi]
					}
					stacked[seg][bi] = linalg.VStack(parts...)
				}
			}
			return c
		},
		compute: func() { ws = train(stacked) },
		send: func(cpi int, fwd ctl) {
			if fwd.EOF {
				return
			}
			for bw, bfPos := range sd.bfPos {
				ov := redist.Intersect(pos, bfPos)
				if ov.Size() == 0 {
					continue
				}
				sub := make([][]*linalg.Matrix, sd.segs)
				for seg := range sub {
					sub[seg] = ws[seg][ov.Lo-pos.Lo : ov.Hi-pos.Lo]
				}
				comm.Send(topo.groups[sd.bfTask].Global(bw), tag(sd.wTag, cpi+1), sd.weightsMsg(sub))
			}
		},
	}
}

// bfStage is one processor of a beamforming task (3 easy, 4 hard), written
// once over the side's table: assemble its bins' Doppler-major data from
// every Doppler processor, receive this CPI's weights (steering on a job
// reset), beamform, and forward rows to the pulse-compression workers
// owning the corresponding global bins. Both sides of that last transfer
// partition along N, so it needs no reorganization (the paper's
// observation in Section 5.4). Weights shipped across a job boundary are
// received and discarded to keep the per-CPI streams aligned.
func (e *env) bfStage(sd *side, w int) stage {
	topo, p := e.topo, e.topo.p
	comm := e.world.Comm(topo.groups[sd.bfTask].Global(w))
	pos := sd.bfPos[w]
	bins := binsAt(sd.bins, pos)
	steer := sd.steer(stap.SteeringWeights(p, e.beamAz))
	pieces := make([]*cube.Cube, topo.groups[TaskDoppler].N)
	var ws [][]*linalg.Matrix // [segment][binIdx]
	var slab, out *cube.Cube
	return stage{
		recv: func(cpi int) ctl {
			var c ctl
			for s := range pieces {
				msg := comm.Recv(topo.groups[TaskDoppler].Global(s), tag(sd.dataTag, cpi)).(bfDataMsg)
				pieces[s], c = msg.Piece, msg.Ctl
			}
			if c.EOF {
				return c
			}
			ws = make([][]*linalg.Matrix, sd.segs)
			for seg := range ws {
				ws[seg] = make([]*linalg.Matrix, len(bins))
			}
			if cpi > 0 {
				for ww, wPos := range sd.wPos {
					ov := redist.Intersect(pos, wPos)
					if ov.Size() == 0 {
						continue
					}
					got := sd.weights(comm.Recv(topo.groups[sd.wTask].Global(ww), tag(sd.wTag, cpi)))
					if !c.Reset {
						for seg := range ws {
							copy(ws[seg][ov.Lo-pos.Lo:ov.Hi-pos.Lo], got[seg])
						}
					}
				}
			}
			if c.Reset {
				for seg := range ws {
					copy(ws[seg], steer[seg][pos.Lo:pos.Hi])
				}
			}
			slab = redist.AssembleBeamformInput(p, pieces, topo.kBlocks, sd.channels)
			return c
		},
		compute: func() {
			out = cube.New(radar.BeamOrder, len(bins), p.M, p.K)
			sd.beamform(p, slab, ws, out, e.threads)
		},
		send: func(cpi int, fwd ctl) {
			for pw, blk := range topo.pcBlocks {
				lo, hi := redist.IntersectList(bins, blk)
				if lo >= hi {
					continue
				}
				m := beamMsg{Ctl: fwd}
				if !fwd.EOF {
					m.Slab, m.GlobalBins = redist.SliceBins(out, lo, hi), bins[lo:hi]
				}
				comm.Send(topo.groups[TaskPulseComp].Global(pw), tag(sd.beamTag, cpi), m)
			}
		},
	}
}

// pulseCompStage is one processor of task 5: assemble its global-bin
// block from the beamforming workers, fast-convolve with the matched
// filter, square to power, and forward to the CFAR workers.
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
	var local *cube.Cube
	var power *cube.RealCube
	return stage{
		recv: func(cpi int) ctl {
			var c ctl
			local = cube.New(radar.BeamOrder, blk.Size(), p.M, p.K)
			for _, s := range senders {
				msg := comm.Recv(s.rank, tag(s.stream, cpi)).(beamMsg)
				c = c.merge(msg.Ctl)
				for i, d := range msg.GlobalBins {
					for m := 0; m < p.M; m++ {
						copy(local.Vec(d-blk.Lo, m), msg.Slab.Vec(i, m))
					}
				}
			}
			return c
		},
		compute: func() {
			power = cube.NewReal(radar.BeamOrder, blk.Size(), p.M, p.K)
			stap.PulseCompressRowsThreaded(p, local, mf, power, 0, blk.Size(), e.threads)
		},
		send: func(cpi int, fwd ctl) {
			for cw, cblk := range topo.cfBlocks {
				ov := redist.Intersect(blk, cblk)
				if ov.Size() == 0 {
					continue
				}
				m := powerMsg{Ctl: fwd}
				if !fwd.EOF {
					m.Slab, m.Blk = power.SliceAxis0(cube.Block{Lo: ov.Lo - blk.Lo, Hi: ov.Hi - blk.Lo}), ov
				}
				comm.Send(topo.groups[TaskCFAR].Global(cw), tag(tagPower, cpi), m)
			}
		},
	}
}

// cfarStage is one processor of task 6: assemble power rows, run the
// sliding-window detector, and emit the detection report to the pipeline
// output.
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
	var local *cube.RealCube
	var dets []stap.Detection
	return stage{
		recv: func(cpi int) ctl {
			var c ctl
			local = cube.NewReal(radar.BeamOrder, blk.Size(), p.M, p.K)
			for _, src := range senders {
				msg := comm.Recv(src, tag(tagPower, cpi)).(powerMsg)
				c = c.merge(msg.Ctl)
				if !msg.Ctl.EOF {
					local.PasteAxis0(cube.Block{Lo: msg.Blk.Lo - blk.Lo, Hi: msg.Blk.Hi - blk.Lo}, msg.Slab)
				}
			}
			return c
		},
		compute: func() {
			dets = nil
			stap.CFARRowsThreaded(p, local, blk.Lo, blk.Hi, true, &dets, e.threads)
		},
		send: func(cpi int, fwd ctl) {
			m := detMsg{Ctl: fwd}
			if !fwd.EOF {
				m.Dets = dets
			}
			comm.Send(topo.driver, tag(tagDet, cpi), m)
		},
	}
}
