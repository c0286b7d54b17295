package pipeline

import (
	"fmt"

	"pstap/internal/cube"
	"pstap/internal/linalg"
	"pstap/internal/radar"
	"pstap/internal/redist"
	"pstap/internal/stap"
	"pstap/internal/wire"
)

// Message payloads. Every type reports its wire size (mp.Sizer) so the
// world can account communication volume against the Paragon cost model.
// The messages are plain data sent as pointers, which the in-process
// mailboxes pass by reference; a distributed transport (internal/dist)
// ships them between processes in the flat form of
// AppendMessage/DecodeMessageInto, whose decoded payload is structurally
// identical to the original — the cubes and matrices cross as their
// float64 bit patterns, which keeps a split pipeline bit-exact. What a
// payload's bytes are is decided by the four types inside them
// (cube.Cube, cube.RealCube, linalg.Matrix and stap.Detection;
// internal/wire's flat.go) and by the two switches below.

// Message kinds, the first byte of a message's flat form.
const (
	kindNil byte = iota // a nil payload: what a droppayload fault leaves
	kindRaw
	kindEasyTrain
	kindHardTrain
	kindBFData
	kindEasyWeights
	kindHardWeights
	kindBeam
	kindPower
	kindDet
)

// AppendMessage appends the flat form of one inter-task message: its
// kind byte, then its fields in declaration order. A type that is not a
// pipeline message is an error.
func AppendMessage(e *wire.Enc, m any) error {
	switch m := m.(type) {
	case nil:
		e.Byte(kindNil)
	case *rawMsg:
		e.Byte(kindRaw)
		e.Cube(m.Slab)
		m.Ctl.put(e)
	case *easyTrainMsg:
		e.Byte(kindEasyTrain)
		wire.PutSlice(e, m.Rows, (*wire.Enc).Matrix)
		m.Ctl.put(e)
	case *hardTrainMsg:
		e.Byte(kindHardTrain)
		putSegments(e, m.Rows)
		m.Ctl.put(e)
	case *bfDataMsg:
		e.Byte(kindBFData)
		e.Cube(m.Piece)
		m.Ctl.put(e)
	case *easyWeightsMsg:
		e.Byte(kindEasyWeights)
		wire.PutSlice(e, m.Ws, (*wire.Enc).Matrix)
	case *hardWeightsMsg:
		e.Byte(kindHardWeights)
		putSegments(e, m.Ws)
	case *beamMsg:
		e.Byte(kindBeam)
		e.Cube(m.Slab)
		wire.PutSlice(e, m.GlobalBins, (*wire.Enc).Int)
		m.Ctl.put(e)
	case *powerMsg:
		e.Byte(kindPower)
		e.RealCube(m.Slab)
		e.Int(m.Blk.Lo)
		e.Int(m.Blk.Hi)
		m.Ctl.put(e)
	case *detMsg:
		e.Byte(kindDet)
		e.Detections(m.Dets)
		m.Ctl.put(e)
	default:
		return fmt.Errorf("pipeline: %T is not an inter-task message", m)
	}
	return nil
}

// DecodeMessageInto reads one message AppendMessage wrote. When prev is
// a message of the same kind, the message is decoded into prev itself —
// its struct, cubes, matrices and slices keep their memory where the
// sizes match (wire's …Into forms) — and prev is returned; otherwise
// (prev nil, say) into fresh memory. prev must be dead to every reader: a dist link
// passes the slot of the message that arrived depth messages earlier on
// the same edge (see RingDepth). Corrupt input is an error (the Dec's),
// never a panic; the caller checks that the body ends where the message
// does. The reads on each line run in field order: Go evaluates an
// assignment's calls left to right.
func DecodeMessageInto(d *wire.Dec, prev any) (any, error) {
	var m any
	switch k := d.Byte(); k {
	case kindNil:
	case kindRaw:
		r := reuse[rawMsg](prev)
		r.Slab, r.Ctl = d.CubeInto(r.Slab), getCtl(d)
		m = r
	case kindEasyTrain:
		r := reuse[easyTrainMsg](prev)
		r.Rows, r.Ctl = getMatrices(d, r.Rows), getCtl(d)
		m = r
	case kindHardTrain:
		r := reuse[hardTrainMsg](prev)
		r.Rows, r.Ctl = getSegments(d, r.Rows), getCtl(d)
		m = r
	case kindBFData:
		r := reuse[bfDataMsg](prev)
		r.Piece, r.Ctl = d.CubeInto(r.Piece), getCtl(d)
		m = r
	case kindEasyWeights:
		r := reuse[easyWeightsMsg](prev)
		r.Ws = getMatrices(d, r.Ws)
		m = r
	case kindHardWeights:
		r := reuse[hardWeightsMsg](prev)
		r.Ws = getSegments(d, r.Ws)
		m = r
	case kindBeam:
		r := reuse[beamMsg](prev)
		r.Slab = d.CubeInto(r.Slab)
		r.GlobalBins = wire.GetSliceInto(d, r.GlobalBins, 8, func(d *wire.Dec, _ int) int { return d.Int() })
		r.Ctl = getCtl(d)
		m = r
	case kindPower:
		r := reuse[powerMsg](prev)
		r.Slab, r.Blk, r.Ctl = d.RealCubeInto(r.Slab), cube.Block{Lo: d.Int(), Hi: d.Int()}, getCtl(d)
		m = r
	case kindDet:
		r := reuse[detMsg](prev)
		r.Dets, r.Ctl = d.DetectionsInto(r.Dets), getCtl(d)
		m = r
	default:
		d.Fail(fmt.Errorf("pipeline: unknown message kind %d", k))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// reuse returns prev when it is a *T, else a new T.
func reuse[T any](prev any) *T {
	if m, ok := prev.(*T); ok {
		return m
	}
	return new(T)
}

// RingDepth is the depth of every payload ring of a stream whose in-flight
// window is window (0 means the default): window + 1 slots, the fewest
// the ring argument allows (see ring). A dist link keeps the messages it
// decodes in per-edge slots of the same depth.
func RingDepth(window int) int {
	if window <= 0 {
		window = defaultWindow
	}
	return window + 1
}

// Flat sizes of the parts of a message: its kind byte, a ctl, a slice
// count, the fixed fields of a cube (presence, axes, dims, count) and of
// a matrix (presence, rows, cols, count), and one detection.
const (
	kindBytes   = 1
	ctlBytes    = 3 + 8 + 1
	countBytes  = 8
	cubeBytes   = 1 + 3*8 + 3*8 + countBytes
	matrixBytes = 1 + 2*8 + countBytes
	detBytes    = 5 * 8
)

// MaxMessageBytes bounds the flat size of any message a stream over p and
// a sends: the largest, over every edge, of what its sender can put in
// one message. A bin's training rows hold at most one row per range cell
// of their Doppler worker's block over all segments, and a detection
// report at most one detection per cell of its CFAR worker's bins. A dist
// link refuses a longer data frame at its header.
func MaxMessageBytes(p radar.Params, a Assignment) int {
	t := newTopology(p, a)
	k := largest(t.kBlocks)
	n := kindBytes + cubeBytes + 16*k*p.J*p.N + ctlBytes // raw slab
	for _, sd := range t.sides() {
		w, bf := largest(sd.wPos), largest(sd.bfPos)
		table := countBytes + sd.segs*(countBytes+w*matrixBytes) // [segment][binIdx] matrix headers
		n = max(n,
			kindBytes+table+w*16*k*sd.channels+ctlBytes,                // training rows
			kindBytes+table+sd.segs*w*16*sd.channels*p.M,               // weights
			kindBytes+cubeBytes+16*bf*k*sd.channels+ctlBytes,           // Doppler-major piece
			kindBytes+cubeBytes+16*bf*p.M*p.K+countBytes+8*bf+ctlBytes) // beam rows
	}
	n = max(n,
		kindBytes+cubeBytes+8*largest(t.pcBlocks)*p.M*p.K+2*8+ctlBytes,     // power rows
		kindBytes+countBytes+detBytes*largest(t.cfBlocks)*p.M*p.K+ctlBytes) // detections
	return n
}

// largest is the size of the largest block.
func largest(blocks []cube.Block) int {
	n := 0
	for _, b := range blocks {
		n = max(n, b.Size())
	}
	return n
}

// putSegments appends a [segment][binIdx] matrix table.
func putSegments(e *wire.Enc, segs [][]*linalg.Matrix) {
	wire.PutSlice(e, segs, func(e *wire.Enc, seg []*linalg.Matrix) {
		wire.PutSlice(e, seg, (*wire.Enc).Matrix)
	})
}

// getMatrices reads a list of matrices into ms's memory.
func getMatrices(d *wire.Dec, ms []*linalg.Matrix) []*linalg.Matrix {
	return wire.GetSliceInto(d, ms, 1, (*wire.Dec).MatrixInto)
}

// getSegments reads a putSegments table into segs' memory.
func getSegments(d *wire.Dec, segs [][]*linalg.Matrix) [][]*linalg.Matrix {
	return wire.GetSliceInto(d, segs, 8, getMatrices)
}

// ctl carries per-CPI stream control alongside the data. Reset marks the
// first CPI of an independent job: weight state restarts and steering
// weights apply, so a long-lived pipeline (see Stream) produces output for
// each job bit-identical to a fresh run. Last marks a job's last CPI: no
// CPI of the job follows it to apply weights trained on it, so Doppler
// extracts no training rows, the weight tasks neither train nor send, and
// the temporal edges TD(1,3)/TD(2,4) stop at the job boundary. EOF marks
// the end of the input stream: each task forwards it downstream and its
// workers exit — the graceful-drain path, and the only way a worker loop
// ends short of an abort.
//
// Reset at CPI c holds exactly when c = 0 or Last was set at CPI c−1:
// both flags are set in one place, the submitter loop of
// Stream.processJob, which numbers each job's CPIs 0..n−1. That is what
// keeps the weight streams aligned: a beamformer receives weights for CPI
// c iff !Reset, and a weight worker sends weights for CPI c+1 iff CPI c
// is not Last. A job whose Last CPI is never submitted is cut short by
// a dying stream (quit or an aborted world), and a dead stream is never
// fed again.
//
// Trace and Hop are the CPI's observability lineage: the feeder stamps a
// fresh obs.NewTraceID at Doppler ingest, and every task forwards the
// trace with Hop incremented (see ctl.next), so spans recorded on any
// process — ctl crosses dist links whole, inside its message — are
// attributable to one CPI lineage end to end. The weight streams
// (TD(1,3)/TD(2,4)) deliberately carry no ctl: weights computed at CPI
// i apply to CPI i+1, a different lineage.
type ctl struct {
	Reset, Last, EOF bool
	Trace            uint64
	Hop              uint8
}

// next returns the control flags to forward one task hop downstream:
// identical flags, hop depth incremented. The hop counter saturates at
// 255 instead of wrapping — a cycle in the forwarding graph (or a
// runaway re-forward bug) must not masquerade as a fresh ingest hop.
func (c ctl) next() ctl {
	if c.Hop < 255 {
		c.Hop++
	}
	return c
}

// trains reports whether this CPI's data trains weights: it is neither
// the stream's end nor a job's last CPI.
func (c ctl) trains() bool { return !c.EOF && !c.Last }

// merge folds one sender's control flags into the flags a stage with
// several senders has seen so far for a CPI: EOF from any sender wins.
func (c ctl) merge(m ctl) ctl {
	if c.EOF && !m.EOF {
		return c
	}
	return m
}

// put appends c's flat form, its fields in declaration order.
func (c ctl) put(e *wire.Enc) {
	e.Bool(c.Reset)
	e.Bool(c.Last)
	e.Bool(c.EOF)
	e.Uint64(c.Trace)
	e.Byte(c.Hop)
}

// getCtl reads a ctl.put.
func getCtl(d *wire.Dec) ctl {
	return ctl{Reset: d.Bool(), Last: d.Bool(), EOF: d.Bool(), Trace: d.Uint64(), Hop: d.Byte()}
}

// ObsTrace implements obs.Traced on every ctl-carrying payload: the
// distributed transport asks payloads for their trace id to attribute
// per-hop wire costs (serialize/transmit/deserialize) to the CPI whose
// data crossed the link. The weight messages deliberately do not
// implement it — they carry no ctl, being a different lineage.
func (m *rawMsg) ObsTrace() uint64       { return m.Ctl.Trace }
func (m *easyTrainMsg) ObsTrace() uint64 { return m.Ctl.Trace }
func (m *hardTrainMsg) ObsTrace() uint64 { return m.Ctl.Trace }
func (m *bfDataMsg) ObsTrace() uint64    { return m.Ctl.Trace }
func (m *beamMsg) ObsTrace() uint64      { return m.Ctl.Trace }
func (m *powerMsg) ObsTrace() uint64     { return m.Ctl.Trace }
func (m *detMsg) ObsTrace() uint64       { return m.Ctl.Trace }

// rawMsg carries one Doppler worker's range slab of a raw CPI.
type rawMsg struct {
	Slab *cube.Cube
	Ctl  ctl
}

// Bytes implements mp.Sizer.
func (m *rawMsg) Bytes() int64 {
	if m.Slab == nil {
		return 0
	}
	return m.Slab.Bytes()
}

// easyTrainMsg carries collected easy training rows, one matrix per
// destination-owned easy bin (the paper's irregular "data collection"
// transfer, Figure 6b).
type easyTrainMsg struct {
	Rows []*linalg.Matrix
	Ctl  ctl
}

// Bytes implements mp.Sizer.
func (m *easyTrainMsg) Bytes() int64 { return redist.RowsBytes(m.Rows) }

// hardTrainMsg carries collected hard training rows, [segment][binIdx].
type hardTrainMsg struct {
	Rows [][]*linalg.Matrix
	Ctl  ctl
}

// Bytes implements mp.Sizer.
func (m *hardTrainMsg) Bytes() int64 {
	var n int64
	for _, seg := range m.Rows {
		n += redist.RowsBytes(seg)
	}
	return n
}

// bfDataMsg carries a reorganized Doppler-major piece of the staggered CPI
// for a beamforming worker (Figure 8).
type bfDataMsg struct {
	Piece *cube.Cube
	Ctl   ctl
}

// Bytes implements mp.Sizer.
func (m *bfDataMsg) Bytes() int64 {
	if m.Piece == nil {
		return 0
	}
	return m.Piece.Bytes()
}

// easyWeightsMsg carries J x M weight matrices for a contiguous run of
// easy bins.
type easyWeightsMsg struct{ Ws []*linalg.Matrix }

// Bytes implements mp.Sizer.
func (m *easyWeightsMsg) Bytes() int64 { return redist.WeightsBytes(m.Ws) }

// hardWeightsMsg carries 2J x M weight matrices, [segment][binIdx].
type hardWeightsMsg struct{ Ws [][]*linalg.Matrix }

// Bytes implements mp.Sizer.
func (m *hardWeightsMsg) Bytes() int64 {
	var n int64
	for _, seg := range m.Ws {
		n += redist.WeightsBytes(seg)
	}
	return n
}

// beamMsg carries beamformed rows for a contiguous run of the sender's
// bins; GlobalBins identifies each row's Doppler bin.
type beamMsg struct {
	Slab       *cube.Cube
	GlobalBins []int
	Ctl        ctl
}

// Bytes implements mp.Sizer.
func (m *beamMsg) Bytes() int64 {
	if m.Slab == nil {
		return 0
	}
	return m.Slab.Bytes()
}

// powerMsg carries pulse-compressed power rows covering global bins
// [Blk.Lo, Blk.Hi).
type powerMsg struct {
	Slab *cube.RealCube
	Blk  cube.Block
	Ctl  ctl
}

// Bytes implements mp.Sizer.
func (m *powerMsg) Bytes() int64 {
	if m.Slab == nil {
		return 0
	}
	return m.Slab.Bytes()
}

// detMsg carries one CFAR worker's detections for a CPI.
type detMsg struct {
	Dets []stap.Detection
	Ctl  ctl
}

// Bytes implements mp.Sizer; a detection report entry is 3 int32 plus 2
// float32 on the wire (20 bytes).
func (m *detMsg) Bytes() int64 { return int64(len(m.Dets)) * 20 }
