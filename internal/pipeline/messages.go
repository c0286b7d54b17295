package pipeline

import (
	"pstap/internal/cube"
	"pstap/internal/linalg"
	"pstap/internal/redist"
	"pstap/internal/stap"
)

// Message payloads. Every type reports its wire size (mp.Sizer) so the
// world can account communication volume against the Paragon cost model.

// ctl carries per-CPI stream control alongside the data. Reset marks the
// first CPI of an independent job: weight state restarts and steering
// weights apply, so a long-lived pipeline (see Stream) produces output for
// each job bit-identical to a fresh run. EOF marks the end of the input
// stream: each task forwards it downstream and its workers exit — the
// graceful-drain path, and the only way a worker loop ends short of an
// abort.
//
// Trace and Hop are the CPI's observability lineage: the feeder stamps a
// fresh obs.NewTraceID at Doppler ingest, and every task forwards the
// trace with Hop incremented (see ctl.next), so spans recorded on any
// process — the wire codecs carry ctl whole across dist links — are
// attributable to one CPI lineage end to end. The weight streams
// (TD(1,3)/TD(2,4)) deliberately carry no ctl: weights computed at CPI
// i apply to CPI i+1, a different lineage.
type ctl struct {
	Reset, EOF bool
	Trace      uint64
	Hop        uint8
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

// ObsTrace implements obs.Traced on every ctl-carrying payload: the
// distributed transport asks payloads for their trace id to attribute
// per-hop wire costs (serialize/transmit/deserialize) to the CPI whose
// data crossed the link. The weight messages deliberately do not
// implement it — they carry no ctl, being a different lineage.
func (m rawMsg) ObsTrace() uint64       { return m.ctl.Trace }
func (m easyTrainMsg) ObsTrace() uint64 { return m.ctl.Trace }
func (m hardTrainMsg) ObsTrace() uint64 { return m.ctl.Trace }
func (m bfDataMsg) ObsTrace() uint64    { return m.ctl.Trace }
func (m beamMsg) ObsTrace() uint64      { return m.ctl.Trace }
func (m powerMsg) ObsTrace() uint64     { return m.ctl.Trace }
func (m detMsg) ObsTrace() uint64       { return m.ctl.Trace }

// rawMsg carries one Doppler worker's range slab of a raw CPI.
type rawMsg struct {
	slab *cube.Cube
	ctl  ctl
}

// Bytes implements mp.Sizer.
func (m rawMsg) Bytes() int64 {
	if m.slab == nil {
		return 0
	}
	return m.slab.Bytes()
}

// easyTrainMsg carries collected easy training rows, one matrix per
// destination-owned easy bin (the paper's irregular "data collection"
// transfer, Figure 6b).
type easyTrainMsg struct {
	rows []*linalg.Matrix
	ctl  ctl
}

// Bytes implements mp.Sizer.
func (m easyTrainMsg) Bytes() int64 { return redist.RowsBytes(m.rows) }

// hardTrainMsg carries collected hard training rows, [segment][binIdx].
type hardTrainMsg struct {
	rows [][]*linalg.Matrix
	ctl  ctl
}

// Bytes implements mp.Sizer.
func (m hardTrainMsg) Bytes() int64 {
	var n int64
	for _, seg := range m.rows {
		n += redist.RowsBytes(seg)
	}
	return n
}

// bfDataMsg carries a reorganized Doppler-major piece of the staggered CPI
// for a beamforming worker (Figure 8).
type bfDataMsg struct {
	piece *cube.Cube
	ctl   ctl
}

// Bytes implements mp.Sizer.
func (m bfDataMsg) Bytes() int64 {
	if m.piece == nil {
		return 0
	}
	return m.piece.Bytes()
}

// easyWeightsMsg carries J x M weight matrices for a contiguous run of
// easy bins.
type easyWeightsMsg struct{ ws []*linalg.Matrix }

// Bytes implements mp.Sizer.
func (m easyWeightsMsg) Bytes() int64 { return redist.WeightsBytes(m.ws) }

// hardWeightsMsg carries 2J x M weight matrices, [segment][binIdx].
type hardWeightsMsg struct{ ws [][]*linalg.Matrix }

// Bytes implements mp.Sizer.
func (m hardWeightsMsg) Bytes() int64 {
	var n int64
	for _, seg := range m.ws {
		n += redist.WeightsBytes(seg)
	}
	return n
}

// beamMsg carries beamformed rows for a contiguous run of the sender's
// bins; globalBins identifies each row's Doppler bin.
type beamMsg struct {
	slab       *cube.Cube
	globalBins []int
	ctl        ctl
}

// Bytes implements mp.Sizer.
func (m beamMsg) Bytes() int64 {
	if m.slab == nil {
		return 0
	}
	return m.slab.Bytes()
}

// powerMsg carries pulse-compressed power rows covering global bins
// [blk.Lo, blk.Hi).
type powerMsg struct {
	slab *cube.RealCube
	blk  cube.Block
	ctl  ctl
}

// Bytes implements mp.Sizer.
func (m powerMsg) Bytes() int64 {
	if m.slab == nil {
		return 0
	}
	return m.slab.Bytes()
}

// detMsg carries one CFAR worker's detections for a CPI.
type detMsg struct {
	dets []stap.Detection
	ctl  ctl
}

// Bytes implements mp.Sizer; a detection report entry is 3 int32 plus 2
// float32 on the wire (20 bytes).
func (m detMsg) Bytes() int64 { return int64(len(m.dets)) * 20 }
