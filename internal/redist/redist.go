// Package redist implements the inter-task data redistribution of the
// parallel pipeline: packing (data collection + reorganization) on the
// sending side, routing between different partitionings, and assembly on
// the receiving side.
//
// The pipeline's tasks partition along different dimensions — the Doppler
// filter along range (K), everything downstream along Doppler (N) — so the
// Doppler-to-successor transfers are all-to-all personalized
// communications: every successor processor receives a piece from every
// Doppler processor. Packing reorganizes each piece from the K-major
// staggered layout to the Doppler-major layout beamforming wants; the
// strided copies involved are the cache-expensive reorganization the paper
// analyzes (Figure 8).
package redist

import (
	"fmt"

	"pstap/internal/cube"
	"pstap/internal/linalg"
	"pstap/internal/radar"
)

// Intersect returns the overlap of two index blocks (possibly empty, with
// Lo == Hi).
func Intersect(a, b cube.Block) cube.Block {
	lo, hi := a.Lo, a.Hi
	if b.Lo > lo {
		lo = b.Lo
	}
	if b.Hi < hi {
		hi = b.Hi
	}
	if hi < lo {
		hi = lo
	}
	return cube.Block{Lo: lo, Hi: hi}
}

// IntersectList returns the position interval [lo, hi) of the ascending
// list whose values fall inside blk. Used to route a task that owns a
// block of positions in a bin *list* (easy/hard bins) to a task that owns
// a block of the *global* bin space (pulse compression, CFAR).
func IntersectList(list []int, blk cube.Block) (lo, hi int) {
	lo = len(list)
	for i, v := range list {
		if blk.Contains(v) {
			lo = i
			break
		}
	}
	hi = lo
	for hi < len(list) && blk.Contains(list[hi]) {
		hi++
	}
	return lo, hi
}

// PackForBeamform performs the sender-side reorganization of the
// Doppler-to-beamforming transfer: from a staggered K-slab (Kblk x 2J x N,
// radar.StaggeredOrder, covering global ranges slabBlk) it extracts the
// given global Doppler bins and the first `channels` channels (J for the
// easy task, 2J for the hard task — the easy side receives only the
// unstaggered spectrum), producing a piece in Doppler-major layout:
// len(bins) x Kblk x channels with channels unit stride.
//
// This is exactly the Figure 8 reorganization; the innermost gather is a
// strided read from the source slab. It is PackForBeamformInto a fresh
// cube.
func PackForBeamform(p radar.Params, slab *cube.Cube, slabBlk cube.Block, bins []int, channels int) *cube.Cube {
	out := cube.New(radar.BeamformInOrder, len(bins), slabBlk.Size(), channels)
	PackForBeamformInto(out, p, slab, slabBlk, bins, channels)
	return out
}

// PackForBeamformInto is PackForBeamform writing every element of dst,
// which must be a len(bins) x slabBlk.Size() x channels BeamformInOrder
// cube — the form for a sender that packs into a buffer it keeps.
func PackForBeamformInto(dst *cube.Cube, p radar.Params, slab *cube.Cube, slabBlk cube.Block, bins []int, channels int) {
	if slab.Axes != radar.StaggeredOrder {
		panic(fmt.Sprintf("redist: PackForBeamform wants %v, got %v", radar.StaggeredOrder, slab.Axes))
	}
	if slab.Dim[0] != slabBlk.Size() {
		panic("redist: slab size does not match block")
	}
	if channels > slab.Dim[1] {
		panic("redist: channel count exceeds slab channels")
	}
	if dst.Axes != radar.BeamformInOrder || dst.Dim != [3]int{len(bins), slabBlk.Size(), channels} {
		panic(fmt.Sprintf("redist: pack into %v %v, want [%d %d %d]", dst.Axes, dst.Dim, len(bins), slabBlk.Size(), channels))
	}
	for bi, d := range bins {
		for r := 0; r < slabBlk.Size(); r++ {
			out := dst.Vec(bi, r)
			for j := 0; j < channels; j++ {
				out[j] = slab.At(r, j, d)
			}
		}
	}
}

// AssembleBeamformInput is the receiver-side unpack: pieces from every
// Doppler processor (piece i covering global ranges blocks[i], all in
// Doppler-major layout with identical bin and channel counts) are pasted
// into one nBins x K x channels cube. Blocks must tile [0, K). It is
// AssembleBeamformInputInto a fresh cube.
func AssembleBeamformInput(p radar.Params, pieces []*cube.Cube, blocks []cube.Block, channels int) *cube.Cube {
	if len(pieces) == 0 {
		panic("redist: pieces/blocks mismatch")
	}
	out := cube.New(radar.BeamformInOrder, pieces[0].Dim[0], p.K, channels)
	AssembleBeamformInputInto(out, p, pieces, blocks, channels)
	return out
}

// AssembleBeamformInputInto is AssembleBeamformInput writing into dst, an
// nBins x K x channels BeamformInOrder cube the receiver keeps; since the
// blocks tile [0, K), every element is overwritten.
func AssembleBeamformInputInto(dst *cube.Cube, p radar.Params, pieces []*cube.Cube, blocks []cube.Block, channels int) {
	if len(pieces) == 0 || len(pieces) != len(blocks) {
		panic("redist: pieces/blocks mismatch")
	}
	nBins := pieces[0].Dim[0]
	if dst.Axes != radar.BeamformInOrder || dst.Dim != [3]int{nBins, p.K, channels} {
		panic(fmt.Sprintf("redist: assemble into %v %v, want [%d %d %d]", dst.Axes, dst.Dim, nBins, p.K, channels))
	}
	for i, piece := range pieces {
		blk := blocks[i]
		if piece.Dim != [3]int{nBins, blk.Size(), channels} {
			panic(fmt.Sprintf("redist: piece %d dims %v, want [%d %d %d]", i, piece.Dim, nBins, blk.Size(), channels))
		}
		for b := 0; b < nBins; b++ {
			for r := 0; r < blk.Size(); r++ {
				copy(dst.Vec(b, blk.Lo+r), piece.Vec(b, r))
			}
		}
	}
}

// PackForBeamformNoReorg is the ablation alternative to PackForBeamform:
// the sender selects the destination's bins and channels but keeps its own
// K-major layout (Kblk x channels x len(bins)), deferring the expensive
// layout transformation to the receiver. The copy out of the slab reads
// unit-stride Doppler vectors instead of gathering across them, so the
// sender-side cost is lower — the receiver pays instead (see
// AssembleWithReorg and the ablation benchmarks).
func PackForBeamformNoReorg(p radar.Params, slab *cube.Cube, slabBlk cube.Block, bins []int, channels int) *cube.Cube {
	if slab.Axes != radar.StaggeredOrder {
		panic(fmt.Sprintf("redist: PackForBeamformNoReorg wants %v, got %v", radar.StaggeredOrder, slab.Axes))
	}
	if slab.Dim[0] != slabBlk.Size() {
		panic("redist: slab size does not match block")
	}
	if channels > slab.Dim[1] {
		panic("redist: channel count exceeds slab channels")
	}
	out := cube.New(radar.StaggeredOrder, slabBlk.Size(), channels, len(bins))
	for r := 0; r < slabBlk.Size(); r++ {
		for j := 0; j < channels; j++ {
			src := slab.Vec(r, j)
			dst := out.Vec(r, j)
			for bi, d := range bins {
				dst[bi] = src[d]
			}
		}
	}
	return out
}

// AssembleWithReorg is the receiver side of the no-reorg path: pieces
// arrive K-major (blocks[i].Size() x channels x nBins) and the receiver
// performs the strided transformation into the Doppler-major working
// layout. Output is identical to AssembleBeamformInput over
// PackForBeamform pieces.
func AssembleWithReorg(p radar.Params, pieces []*cube.Cube, blocks []cube.Block, channels int) *cube.Cube {
	if len(pieces) == 0 || len(pieces) != len(blocks) {
		panic("redist: pieces/blocks mismatch")
	}
	nBins := pieces[0].Dim[2]
	out := cube.New(radar.BeamformInOrder, nBins, p.K, channels)
	for i, piece := range pieces {
		blk := blocks[i]
		if piece.Dim != [3]int{blk.Size(), channels, nBins} {
			panic(fmt.Sprintf("redist: piece %d dims %v", i, piece.Dim))
		}
		for r := 0; r < blk.Size(); r++ {
			for j := 0; j < channels; j++ {
				src := piece.Vec(r, j)
				for bi := 0; bi < nBins; bi++ {
					out.Set(bi, blk.Lo+r, j, src[bi])
				}
			}
		}
	}
	return out
}

// SliceBins returns rows [lo, hi) along axis 0 of a Doppler-major cube —
// the sender-side selection when a beamforming task forwards a contiguous
// subset of its bins to a pulse-compression processor. No reorganization
// is needed (both sides are partitioned along N, as the paper notes), and
// no copy either: the result is a view sharing c's storage, so a sender
// builds it once over an output buffer it keeps.
func SliceBins(c *cube.Cube, lo, hi int) *cube.Cube {
	return c.ViewAxis0(cube.Block{Lo: lo, Hi: hi})
}

// WeightsBytes returns the wire size of a set of weight matrices under the
// paper's 8-byte complex convention.
func WeightsBytes(ms []*linalg.Matrix) int64 {
	var n int64
	for _, m := range ms {
		if m != nil {
			n += int64(len(m.Data)) * 8
		}
	}
	return n
}

// RowsBytes returns the wire size of collected training rows.
func RowsBytes(rows []*linalg.Matrix) int64 { return WeightsBytes(rows) }
