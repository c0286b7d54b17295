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

// dopplerWorker is one processor of task 0. Per CPI: receive its raw range
// slab, Doppler-filter it, then perform data collection (training subsets
// for the weight tasks) and reorganization (Doppler-major pieces for the
// beamforming tasks) and send — the all-to-all personalized phase. The
// control flags of the incoming slab (job reset, stream EOF) are forwarded
// verbatim to every successor worker.
func (e *env) dopplerWorker(w int) {
	topo, p := e.topo, e.topo.p
	comm := e.world.Comm(topo.groups[TaskDoppler].Global(w))
	blk := topo.kBlocks[w]
	for cpi := 0; ; cpi++ {
		t0 := time.Now()
		e.faultPoint(TaskDoppler, w, cpi)
		msg := comm.Recv(topo.driver, tag(tagRaw, cpi)).(rawMsg)
		fwd := msg.ctl.next()
		if msg.ctl.EOF {
			for dw := range topo.easyWPos {
				comm.Send(topo.groups[TaskEasyWeight].Global(dw), tag(tagEasyTrain, cpi), easyTrainMsg{ctl: fwd})
			}
			for dw := range topo.hardWPos {
				comm.Send(topo.groups[TaskHardWeight].Global(dw), tag(tagHardTrain, cpi), hardTrainMsg{ctl: fwd})
			}
			for dw := range topo.easyBFPos {
				comm.Send(topo.groups[TaskEasyBF].Global(dw), tag(tagEasyBFData, cpi), bfDataMsg{ctl: fwd})
			}
			for dw := range topo.hardBFPos {
				comm.Send(topo.groups[TaskHardBF].Global(dw), tag(tagHardBFData, cpi), bfDataMsg{ctl: fwd})
			}
			return
		}
		t1 := time.Now()
		stag := stap.DopplerFilterBlockThreaded(p, msg.slab, e.gain, blk, e.threads)
		t2 := time.Now()
		for dw, pos := range topo.easyWPos {
			rows := stap.ExtractEasyRows(p, stag, blk, binsAt(topo.easyBins, pos))
			comm.Send(topo.groups[TaskEasyWeight].Global(dw), tag(tagEasyTrain, cpi), easyTrainMsg{rows: rows, ctl: fwd})
		}
		for dw, pos := range topo.hardWPos {
			rows := stap.ExtractHardRows(p, stag, blk, binsAt(topo.hardBins, pos))
			comm.Send(topo.groups[TaskHardWeight].Global(dw), tag(tagHardTrain, cpi), hardTrainMsg{rows: rows, ctl: fwd})
		}
		for dw, pos := range topo.easyBFPos {
			piece := redist.PackForBeamform(p, stag, blk, binsAt(topo.easyBins, pos), p.J)
			comm.Send(topo.groups[TaskEasyBF].Global(dw), tag(tagEasyBFData, cpi), bfDataMsg{piece: piece, ctl: fwd})
		}
		for dw, pos := range topo.hardBFPos {
			piece := redist.PackForBeamform(p, stag, blk, binsAt(topo.hardBins, pos), 2*p.J)
			comm.Send(topo.groups[TaskHardBF].Global(dw), tag(tagHardBFData, cpi), bfDataMsg{piece: piece, ctl: fwd})
		}
		t3 := time.Now()
		e.emit(TaskDoppler, w, cpi, Span{T0: t0, T1: t1, T2: t2, T3: t3}, msg.ctl)
	}
}

// easyWeightWorker is one processor of task 1: assemble training rows from
// every Doppler processor (stacked in rank order = ascending range order),
// update the training history, solve the constrained least squares for its
// bins, and ship the weights to the easy beamforming workers that own
// those bins — for the *next* CPI (temporal dependency TD(1,3)). A job
// reset re-creates the training state so independent jobs in a stream see
// exactly the fresh-start semantics of a new instance.
func (e *env) easyWeightWorker(w int) {
	topo, p, beamAz := e.topo, e.topo.p, e.beamAz
	comm := e.world.Comm(topo.groups[TaskEasyWeight].Global(w))
	pos := topo.easyWPos[w]
	bins := binsAt(topo.easyBins, pos)
	state := stap.NewEasyWeightStateForBins(p, beamAz, bins)
	p0 := topo.groups[TaskDoppler].N
	for cpi := 0; ; cpi++ {
		t0 := time.Now()
		e.faultPoint(TaskEasyWeight, w, cpi)
		var c ctl
		perSrc := make([][]*linalg.Matrix, p0)
		for s := 0; s < p0; s++ {
			msg := comm.Recv(topo.groups[TaskDoppler].Global(s), tag(tagEasyTrain, cpi)).(easyTrainMsg)
			perSrc[s] = msg.rows
			c = msg.ctl
		}
		if c.EOF {
			return
		}
		if c.Reset && cpi > 0 {
			state = stap.NewEasyWeightStateForBins(p, beamAz, bins)
		}
		stacked := make([]*linalg.Matrix, len(bins))
		parts := make([]*linalg.Matrix, p0)
		for bi := range bins {
			for s := 0; s < p0; s++ {
				parts[s] = perSrc[s][bi]
			}
			stacked[bi] = linalg.VStack(parts...)
		}
		t1 := time.Now()
		state.ObserveRows(stacked)
		ws := state.Compute()
		t2 := time.Now()
		for bw, bfPos := range topo.easyBFPos {
			ov := redist.Intersect(pos, bfPos)
			if ov.Size() == 0 {
				continue
			}
			comm.Send(topo.groups[TaskEasyBF].Global(bw), tag(tagEasyW, cpi+1),
				easyWeightsMsg{ws: ws[ov.Lo-pos.Lo : ov.Hi-pos.Lo]})
		}
		t3 := time.Now()
		e.emit(TaskEasyWeight, w, cpi, Span{T0: t0, T1: t1, T2: t2, T3: t3}, c)
	}
}

// hardWeightWorker is one processor of task 2: the recursive QR update
// with exponential forgetting per (segment, bin), then the constrained
// solves, shipping 2J x M weights to the hard beamforming workers for the
// next CPI (TD(2,4)).
func (e *env) hardWeightWorker(w int) {
	topo, p, beamAz := e.topo, e.topo.p, e.beamAz
	comm := e.world.Comm(topo.groups[TaskHardWeight].Global(w))
	pos := topo.hardWPos[w]
	bins := binsAt(topo.hardBins, pos)
	state := stap.NewHardWeightStateForBins(p, beamAz, bins)
	p0 := topo.groups[TaskDoppler].N
	nSeg := p.NumSegments()
	for cpi := 0; ; cpi++ {
		t0 := time.Now()
		e.faultPoint(TaskHardWeight, w, cpi)
		var c ctl
		perSrc := make([][][]*linalg.Matrix, p0)
		for s := 0; s < p0; s++ {
			msg := comm.Recv(topo.groups[TaskDoppler].Global(s), tag(tagHardTrain, cpi)).(hardTrainMsg)
			perSrc[s] = msg.rows
			c = msg.ctl
		}
		if c.EOF {
			return
		}
		if c.Reset && cpi > 0 {
			state = stap.NewHardWeightStateForBins(p, beamAz, bins)
		}
		stacked := make([][]*linalg.Matrix, nSeg)
		parts := make([]*linalg.Matrix, p0)
		for seg := 0; seg < nSeg; seg++ {
			stacked[seg] = make([]*linalg.Matrix, len(bins))
			for bi := range bins {
				for s := 0; s < p0; s++ {
					parts[s] = perSrc[s][seg][bi]
				}
				stacked[seg][bi] = linalg.VStack(parts...)
			}
		}
		t1 := time.Now()
		state.ObserveRows(stacked)
		ws := state.Compute()
		t2 := time.Now()
		for bw, bfPos := range topo.hardBFPos {
			ov := redist.Intersect(pos, bfPos)
			if ov.Size() == 0 {
				continue
			}
			sub := make([][]*linalg.Matrix, nSeg)
			for seg := 0; seg < nSeg; seg++ {
				sub[seg] = ws[seg][ov.Lo-pos.Lo : ov.Hi-pos.Lo]
			}
			comm.Send(topo.groups[TaskHardBF].Global(bw), tag(tagHardW, cpi+1), hardWeightsMsg{ws: sub})
		}
		t3 := time.Now()
		e.emit(TaskHardWeight, w, cpi, Span{T0: t0, T1: t1, T2: t2, T3: t3}, c)
	}
}

// easyBFWorker is one processor of task 3: assemble its bins' Doppler-major
// data from every Doppler processor, receive this CPI's weights (steering
// on a job reset), beamform, and forward rows to the pulse-compression
// workers that own them. Weights shipped across a job boundary are
// received and discarded to keep the per-CPI streams aligned.
func (e *env) easyBFWorker(w int) {
	topo, p, beamAz := e.topo, e.topo.p, e.beamAz
	comm := e.world.Comm(topo.groups[TaskEasyBF].Global(w))
	pos := topo.easyBFPos[w]
	bins := binsAt(topo.easyBins, pos)
	steer := stap.SteeringWeights(p, beamAz)
	p0 := topo.groups[TaskDoppler].N
	pieces := make([]*cube.Cube, p0)
	for cpi := 0; ; cpi++ {
		t0 := time.Now()
		e.faultPoint(TaskEasyBF, w, cpi)
		var c ctl
		for s := 0; s < p0; s++ {
			msg := comm.Recv(topo.groups[TaskDoppler].Global(s), tag(tagEasyBFData, cpi)).(bfDataMsg)
			pieces[s] = msg.piece
			c = msg.ctl
		}
		if c.EOF {
			sendBeamEOF(comm, topo, tagEasyBeam, cpi, bins, c.next())
			return
		}
		ws := make([]*linalg.Matrix, len(bins))
		if cpi > 0 {
			for ww, wPos := range topo.easyWPos {
				ov := redist.Intersect(pos, wPos)
				if ov.Size() == 0 {
					continue
				}
				msg := comm.Recv(topo.groups[TaskEasyWeight].Global(ww), tag(tagEasyW, cpi)).(easyWeightsMsg)
				if !c.Reset {
					copy(ws[ov.Lo-pos.Lo:ov.Hi-pos.Lo], msg.ws)
				}
			}
		}
		if c.Reset {
			copy(ws, steer.Easy[pos.Lo:pos.Hi])
		}
		slab := redist.AssembleBeamformInput(p, pieces, topo.kBlocks, p.J)
		t1 := time.Now()
		out := cube.New(radar.BeamOrder, len(bins), p.M, p.K)
		stap.BeamformEasySlabThreaded(p, slab, ws, out, e.threads)
		t2 := time.Now()
		sendBeamRows(comm, topo, tagEasyBeam, cpi, bins, out, c.next())
		t3 := time.Now()
		e.emit(TaskEasyBF, w, cpi, Span{T0: t0, T1: t1, T2: t2, T3: t3}, c)
	}
}

// sendBeamRows routes a beamforming worker's output rows to the
// pulse-compression workers owning the corresponding global bins. Both
// sides partition along N, so this transfer needs no reorganization (the
// paper's observation in Section 5.4).
func sendBeamRows(comm *mp.Comm, topo *topology, stream, cpi int, bins []int, out *cube.Cube, c ctl) {
	for pw, blk := range topo.pcBlocks {
		lo, hi := redist.IntersectList(bins, blk)
		if lo >= hi {
			continue
		}
		comm.Send(topo.groups[TaskPulseComp].Global(pw), tag(stream, cpi), beamMsg{
			slab:       redist.SliceBins(out, lo, hi),
			globalBins: bins[lo:hi],
			ctl:        c,
		})
	}
}

// sendBeamEOF forwards stream EOF to exactly the pulse-compression workers
// this beamforming worker would otherwise feed (the sender sets of
// sendBeamRows).
func sendBeamEOF(comm *mp.Comm, topo *topology, stream, cpi int, bins []int, c ctl) {
	for pw, blk := range topo.pcBlocks {
		if lo, hi := redist.IntersectList(bins, blk); lo < hi {
			comm.Send(topo.groups[TaskPulseComp].Global(pw), tag(stream, cpi), beamMsg{ctl: c})
		}
	}
}

// hardBFWorker is one processor of task 4: like easyBFWorker but with 2J
// channels and per-segment weights.
func (e *env) hardBFWorker(w int) {
	topo, p, beamAz := e.topo, e.topo.p, e.beamAz
	comm := e.world.Comm(topo.groups[TaskHardBF].Global(w))
	pos := topo.hardBFPos[w]
	bins := binsAt(topo.hardBins, pos)
	steer := stap.SteeringWeights(p, beamAz)
	p0 := topo.groups[TaskDoppler].N
	nSeg := p.NumSegments()
	pieces := make([]*cube.Cube, p0)
	for cpi := 0; ; cpi++ {
		t0 := time.Now()
		e.faultPoint(TaskHardBF, w, cpi)
		var c ctl
		for s := 0; s < p0; s++ {
			msg := comm.Recv(topo.groups[TaskDoppler].Global(s), tag(tagHardBFData, cpi)).(bfDataMsg)
			pieces[s] = msg.piece
			c = msg.ctl
		}
		if c.EOF {
			sendBeamEOF(comm, topo, tagHardBeam, cpi, bins, c.next())
			return
		}
		ws := make([][]*linalg.Matrix, nSeg)
		for seg := range ws {
			ws[seg] = make([]*linalg.Matrix, len(bins))
		}
		if cpi > 0 {
			for ww, wPos := range topo.hardWPos {
				ov := redist.Intersect(pos, wPos)
				if ov.Size() == 0 {
					continue
				}
				msg := comm.Recv(topo.groups[TaskHardWeight].Global(ww), tag(tagHardW, cpi)).(hardWeightsMsg)
				if !c.Reset {
					for seg := 0; seg < nSeg; seg++ {
						copy(ws[seg][ov.Lo-pos.Lo:ov.Hi-pos.Lo], msg.ws[seg])
					}
				}
			}
		}
		if c.Reset {
			for seg := 0; seg < nSeg; seg++ {
				copy(ws[seg], steer.Hard[seg][pos.Lo:pos.Hi])
			}
		}
		slab := redist.AssembleBeamformInput(p, pieces, topo.kBlocks, 2*p.J)
		t1 := time.Now()
		out := cube.New(radar.BeamOrder, len(bins), p.M, p.K)
		stap.BeamformHardSlabThreaded(p, slab, ws, out, e.threads)
		t2 := time.Now()
		sendBeamRows(comm, topo, tagHardBeam, cpi, bins, out, c.next())
		t3 := time.Now()
		e.emit(TaskHardBF, w, cpi, Span{T0: t0, T1: t1, T2: t2, T3: t3}, c)
	}
}

// pulseCompWorker is one processor of task 5: assemble its global-bin
// block from the beamforming workers, fast-convolve with the matched
// filter, square to power, and forward to the CFAR workers.
func (e *env) pulseCompWorker(w int) {
	topo, p := e.topo, e.topo.p
	comm := e.world.Comm(topo.groups[TaskPulseComp].Global(w))
	blk := topo.pcBlocks[w]
	mf := stap.NewMatchedFilter(p.K, e.scene.Chirp())

	// Which beamforming workers send to this block, and on which stream?
	type pcSrc struct{ rank, stream int }
	var senders []pcSrc
	for bw, bfPos := range topo.easyBFPos {
		if lo, hi := redist.IntersectList(binsAt(topo.easyBins, bfPos), blk); lo < hi {
			senders = append(senders, pcSrc{rank: topo.groups[TaskEasyBF].Global(bw), stream: tagEasyBeam})
		}
	}
	for bw, bfPos := range topo.hardBFPos {
		if lo, hi := redist.IntersectList(binsAt(topo.hardBins, bfPos), blk); lo < hi {
			senders = append(senders, pcSrc{rank: topo.groups[TaskHardBF].Global(bw), stream: tagHardBeam})
		}
	}
	for cpi := 0; ; cpi++ {
		t0 := time.Now()
		e.faultPoint(TaskPulseComp, w, cpi)
		var c ctl
		local := cube.New(radar.BeamOrder, blk.Size(), p.M, p.K)
		for _, s := range senders {
			msg := comm.Recv(s.rank, tag(s.stream, cpi)).(beamMsg)
			if msg.ctl.EOF {
				c = msg.ctl
				continue
			}
			if !c.EOF {
				c = msg.ctl
			}
			for i, d := range msg.globalBins {
				for m := 0; m < p.M; m++ {
					copy(local.Vec(d-blk.Lo, m), msg.slab.Vec(i, m))
				}
			}
		}
		if c.EOF {
			for cw, cblk := range topo.cfBlocks {
				if redist.Intersect(blk, cblk).Size() > 0 {
					comm.Send(topo.groups[TaskCFAR].Global(cw), tag(tagPower, cpi), powerMsg{ctl: c.next()})
				}
			}
			return
		}
		t1 := time.Now()
		power := cube.NewReal(radar.BeamOrder, blk.Size(), p.M, p.K)
		stap.PulseCompressRowsThreaded(p, local, mf, power, 0, blk.Size(), e.threads)
		t2 := time.Now()
		for cw, cblk := range topo.cfBlocks {
			ov := redist.Intersect(blk, cblk)
			if ov.Size() == 0 {
				continue
			}
			sub := power.SliceAxis0(cube.Block{Lo: ov.Lo - blk.Lo, Hi: ov.Hi - blk.Lo})
			comm.Send(topo.groups[TaskCFAR].Global(cw), tag(tagPower, cpi), powerMsg{slab: sub, blk: ov, ctl: c.next()})
		}
		t3 := time.Now()
		e.emit(TaskPulseComp, w, cpi, Span{T0: t0, T1: t1, T2: t2, T3: t3}, c)
	}
}

// cfarWorker is one processor of task 6: assemble power rows, run the
// sliding-window detector, and emit the detection report to the pipeline
// output.
func (e *env) cfarWorker(w int) {
	topo, p := e.topo, e.topo.p
	comm := e.world.Comm(topo.groups[TaskCFAR].Global(w))
	blk := topo.cfBlocks[w]
	var senders []int
	for pw, pblk := range topo.pcBlocks {
		if redist.Intersect(pblk, blk).Size() > 0 {
			senders = append(senders, topo.groups[TaskPulseComp].Global(pw))
		}
	}
	for cpi := 0; ; cpi++ {
		t0 := time.Now()
		e.faultPoint(TaskCFAR, w, cpi)
		var c ctl
		local := cube.NewReal(radar.BeamOrder, blk.Size(), p.M, p.K)
		for _, src := range senders {
			msg := comm.Recv(src, tag(tagPower, cpi)).(powerMsg)
			if msg.ctl.EOF {
				c = msg.ctl
				continue
			}
			if !c.EOF {
				c = msg.ctl
			}
			local.PasteAxis0(cube.Block{Lo: msg.blk.Lo - blk.Lo, Hi: msg.blk.Hi - blk.Lo}, msg.slab)
		}
		if c.EOF {
			comm.Send(topo.driver, tag(tagDet, cpi), detMsg{ctl: c.next()})
			return
		}
		t1 := time.Now()
		var dets []stap.Detection
		stap.CFARRowsThreaded(p, local, blk.Lo, blk.Hi, true, &dets, e.threads)
		t2 := time.Now()
		comm.Send(topo.driver, tag(tagDet, cpi), detMsg{dets: dets, ctl: c.next()})
		t3 := time.Now()
		e.emit(TaskCFAR, w, cpi, Span{T0: t0, T1: t1, T2: t2, T3: t3}, c)
	}
}
