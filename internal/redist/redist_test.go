package redist

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"pstap/internal/cube"
	"pstap/internal/linalg"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

func TestIntersect(t *testing.T) {
	cases := []struct{ a, b, want cube.Block }{
		{cube.Block{Lo: 0, Hi: 10}, cube.Block{Lo: 5, Hi: 15}, cube.Block{Lo: 5, Hi: 10}},
		{cube.Block{Lo: 0, Hi: 10}, cube.Block{Lo: 10, Hi: 20}, cube.Block{Lo: 10, Hi: 10}},
		{cube.Block{Lo: 0, Hi: 10}, cube.Block{Lo: 20, Hi: 30}, cube.Block{Lo: 20, Hi: 20}},
		{cube.Block{Lo: 5, Hi: 8}, cube.Block{Lo: 0, Hi: 100}, cube.Block{Lo: 5, Hi: 8}},
	}
	for _, c := range cases {
		got := Intersect(c.a, c.b)
		if got.Size() != c.want.Size() || (got.Size() > 0 && got != c.want) {
			t.Errorf("Intersect(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIntersectList(t *testing.T) {
	list := []int{2, 5, 8, 11, 14}
	lo, hi := IntersectList(list, cube.Block{Lo: 5, Hi: 12})
	if lo != 1 || hi != 4 {
		t.Errorf("got [%d,%d)", lo, hi)
	}
	lo, hi = IntersectList(list, cube.Block{Lo: 100, Hi: 200})
	if lo != hi {
		t.Errorf("empty intersection got [%d,%d)", lo, hi)
	}
	lo, hi = IntersectList(list, cube.Block{Lo: 0, Hi: 100})
	if lo != 0 || hi != 5 {
		t.Errorf("full intersection got [%d,%d)", lo, hi)
	}
}

func TestIntersectListCoverageQuick(t *testing.T) {
	// For any partition of the global bin space, the per-destination
	// position intervals of a bin list must tile the whole list.
	p := radar.Small()
	easy := p.EasyBins()
	f := func(pRaw uint8) bool {
		parts := 1 + int(pRaw)%8
		covered := 0
		prev := 0
		for _, blk := range cube.BlockPartition(p.N, parts) {
			lo, hi := IntersectList(easy, blk)
			if lo == hi {
				continue // this destination owns no easy bins
			}
			if lo < prev {
				return false
			}
			covered += hi - lo
			prev = hi
		}
		return covered == len(easy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPackAssembleRoundTrip(t *testing.T) {
	// Packing from every Doppler K-slab and assembling at the destination
	// must reproduce the serial Reorder exactly (both easy J-channel and
	// hard 2J-channel variants).
	p := radar.Small()
	sc := radar.DefaultScene(p)
	dopp := stap.DopplerFilter(p, sc.GenerateCPI(0), nil)
	want := dopp.Reorder(radar.BeamformInOrder)

	for _, channels := range []int{p.J, 2 * p.J} {
		for _, p0 := range []int{1, 3, 4} {
			blocks := cube.BlockPartition(p.K, p0)
			bins := []int{0, 3, 7, p.N - 1}
			pieces := make([]*cube.Cube, p0)
			for i, blk := range blocks {
				slab := dopp.SliceAxis0(blk)
				pieces[i] = PackForBeamform(p, slab, blk, bins, channels)
			}
			got := AssembleBeamformInput(p, pieces, blocks, channels)
			for bi, d := range bins {
				for r := 0; r < p.K; r++ {
					for j := 0; j < channels; j++ {
						if got.At(bi, r, j) != want.At(d, r, j) {
							t.Fatalf("channels=%d p0=%d mismatch at bin %d r %d j %d", channels, p0, d, r, j)
						}
					}
				}
			}
		}
	}
}

func TestPackForBeamformPanics(t *testing.T) {
	p := radar.Small()
	slab := cube.New(radar.StaggeredOrder, 8, 2*p.J, p.N)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("block size mismatch should panic")
			}
		}()
		PackForBeamform(p, slab, cube.Block{Lo: 0, Hi: 9}, []int{0}, p.J)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("too many channels should panic")
			}
		}()
		PackForBeamform(p, slab, cube.Block{Lo: 0, Hi: 8}, []int{0}, 3*p.J)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong order should panic")
			}
		}()
		PackForBeamform(p, cube.New(radar.RawOrder, 8, p.J, p.N), cube.Block{Lo: 0, Hi: 8}, []int{0}, p.J)
	}()
}

func TestAssemblePanicsOnBadPieces(t *testing.T) {
	p := radar.Small()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty pieces should panic")
			}
		}()
		AssembleBeamformInput(p, nil, nil, p.J)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("dim mismatch should panic")
			}
		}()
		pieces := []*cube.Cube{cube.New(radar.BeamformInOrder, 2, 5, p.J)}
		AssembleBeamformInput(p, pieces, []cube.Block{{Lo: 0, Hi: 6}}, p.J)
	}()
}

func TestExtractRowsParallelMatchesSerial(t *testing.T) {
	// Collecting training rows per K-block and stacking in rank order must
	// equal the serial extraction over the full cube.
	p := radar.Small()
	sc := radar.DefaultScene(p)
	dopp := stap.DopplerFilter(p, sc.GenerateCPI(2), nil)
	easyBins := p.EasyBins()

	serialRows := stap.ExtractEasyRows(p, dopp, cube.Block{Lo: 0, Hi: p.K}, easyBins)
	for _, p0 := range []int{1, 2, 5} {
		blocks := cube.BlockPartition(p.K, p0)
		parts := make([][]*linalg.Matrix, p0)
		for i, blk := range blocks {
			parts[i] = stap.ExtractEasyRows(p, dopp.SliceAxis0(blk), blk, easyBins)
		}
		for bi := range easyBins {
			var stack []*linalg.Matrix
			for i := range parts {
				stack = append(stack, parts[bi2(parts, i, bi)]...)
			}
			_ = stack
			var blocksRows []*linalg.Matrix
			for i := 0; i < p0; i++ {
				blocksRows = append(blocksRows, parts[i][bi])
			}
			got := linalg.VStack(blocksRows...)
			if !got.Equalish(serialRows[bi], 0) {
				t.Fatalf("p0=%d bin %d rows differ", p0, bi)
			}
		}
	}
}

// bi2 is a no-op helper kept to exercise slice indexing in the stacking
// loop above without extra allocations.
func bi2(_ [][]*linalg.Matrix, i, _ int) int { return i }

func TestExtractHardRowsParallelMatchesSerial(t *testing.T) {
	p := radar.Small()
	sc := radar.DefaultScene(p)
	dopp := stap.DopplerFilter(p, sc.GenerateCPI(2), nil)
	hardBins := p.HardBins()
	serial := stap.ExtractHardRows(p, dopp, cube.Block{Lo: 0, Hi: p.K}, hardBins)
	for _, p0 := range []int{2, 3} {
		blocks := cube.BlockPartition(p.K, p0)
		parts := make([][][]*linalg.Matrix, p0)
		for i, blk := range blocks {
			parts[i] = stap.ExtractHardRows(p, dopp.SliceAxis0(blk), blk, hardBins)
		}
		for seg := 0; seg < p.NumSegments(); seg++ {
			for bi := range hardBins {
				var rows []*linalg.Matrix
				for i := 0; i < p0; i++ {
					rows = append(rows, parts[i][seg][bi])
				}
				got := linalg.VStack(rows...)
				if !got.Equalish(serial[seg][bi], 0) {
					t.Fatalf("p0=%d seg %d bin %d rows differ", p0, seg, bi)
				}
			}
		}
	}
}

func TestNoReorgPathMatchesReorgPath(t *testing.T) {
	// Sender-side reorganization and receiver-side reorganization must
	// produce the same assembled beamforming input.
	p := radar.Small()
	sc := radar.DefaultScene(p)
	dopp := stap.DopplerFilter(p, sc.GenerateCPI(1), nil)
	bins := []int{1, 4, 9}
	for _, channels := range []int{p.J, 2 * p.J} {
		for _, p0 := range []int{1, 3} {
			blocks := cube.BlockPartition(p.K, p0)
			reorgPieces := make([]*cube.Cube, p0)
			rawPieces := make([]*cube.Cube, p0)
			for i, blk := range blocks {
				slab := dopp.SliceAxis0(blk)
				reorgPieces[i] = PackForBeamform(p, slab, blk, bins, channels)
				rawPieces[i] = PackForBeamformNoReorg(p, slab, blk, bins, channels)
			}
			want := AssembleBeamformInput(p, reorgPieces, blocks, channels)
			got := AssembleWithReorg(p, rawPieces, blocks, channels)
			if !got.Equalish(want, 0) {
				t.Fatalf("channels=%d p0=%d: receiver-side reorg differs", channels, p0)
			}
		}
	}
}

func TestNoReorgPanics(t *testing.T) {
	p := radar.Small()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong order should panic")
			}
		}()
		PackForBeamformNoReorg(p, cube.New(radar.RawOrder, 4, p.J, p.N), cube.Block{Lo: 0, Hi: 4}, []int{0}, p.J)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad piece dims should panic")
			}
		}()
		AssembleWithReorg(p, []*cube.Cube{cube.New(radar.StaggeredOrder, 3, p.J, 2)},
			[]cube.Block{{Lo: 0, Hi: 4}}, p.J)
	}()
}

// The ablation pair: where does the strided copy cost land?
func BenchmarkPackSenderSideReorg(b *testing.B) {
	p := radar.Paper()
	blk := cube.Block{Lo: 0, Hi: p.K / 8}
	slab := cube.New(radar.StaggeredOrder, blk.Size(), 2*p.J, p.N)
	bins := make([]int, p.N/16)
	for i := range bins {
		bins[i] = i * 2
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PackForBeamform(p, slab, blk, bins, 2*p.J)
	}
}

func BenchmarkPackSenderSideNoReorg(b *testing.B) {
	p := radar.Paper()
	blk := cube.Block{Lo: 0, Hi: p.K / 8}
	slab := cube.New(radar.StaggeredOrder, blk.Size(), 2*p.J, p.N)
	bins := make([]int, p.N/16)
	for i := range bins {
		bins[i] = i * 2
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PackForBeamformNoReorg(p, slab, blk, bins, 2*p.J)
	}
}

// Data-collection ablation: sending only the weight tasks' training
// subsets vs shipping the whole staggered slab.
func BenchmarkCollectTrainingSubset(b *testing.B) {
	p := radar.Paper()
	blk := cube.Block{Lo: 0, Hi: p.K / 8}
	slab := cube.New(radar.StaggeredOrder, blk.Size(), 2*p.J, p.N)
	bins := radar.Paper().EasyBins()
	b.ReportAllocs()
	var bytes int64
	for i := 0; i < b.N; i++ {
		rows := stap.ExtractEasyRows(p, slab, blk, bins)
		bytes = RowsBytes(rows)
	}
	b.ReportMetric(float64(bytes), "collected-bytes")
	b.ReportMetric(float64(slab.Bytes()), "fullslab-bytes")
}

func TestSliceBins(t *testing.T) {
	p := radar.Small()
	c := cube.New(radar.BeamOrder, p.N, p.M, p.K)
	for i := range c.Data {
		c.Data[i] = complex(float64(i), 0)
	}
	s := SliceBins(c, 3, 7)
	if s.Dim[0] != 4 {
		t.Fatalf("dim %v", s.Dim)
	}
	for d := 3; d < 7; d++ {
		for m := 0; m < p.M; m++ {
			for r := 0; r < p.K; r++ {
				if s.At(d-3, m, r) != c.At(d, m, r) {
					t.Fatal("slice mismatch")
				}
			}
		}
	}
}

func TestByteAccounting(t *testing.T) {
	ms := []*linalg.Matrix{linalg.NewMatrix(3, 4), nil, linalg.NewMatrix(1, 2)}
	if got := WeightsBytes(ms); got != (12+2)*8 {
		t.Errorf("WeightsBytes = %d", got)
	}
	if RowsBytes(ms[:1]) != 96 {
		t.Error("RowsBytes")
	}
}

func BenchmarkPackForBeamformPaper(b *testing.B) {
	p := radar.Paper()
	blk := cube.Block{Lo: 0, Hi: p.K / 8} // one of 8 Doppler nodes
	slab := cube.New(radar.StaggeredOrder, blk.Size(), 2*p.J, p.N)
	for i := range slab.Data {
		slab.Data[i] = complex(float64(i%13), float64(i%7))
	}
	bins := make([]int, p.N/16) // destination owning 1/16 of bins
	for i := range bins {
		bins[i] = i
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PackForBeamform(p, slab, blk, bins, 2*p.J)
	}
}

// BenchmarkPackForBeamformMedium is one Doppler worker's corner turn per
// CPI under the A10 assignment at Medium: a 128-range slab packed for the
// one easy and the one hard beamforming worker.
func BenchmarkPackForBeamformMedium(b *testing.B) {
	p := radar.Medium()
	blk := cube.Block{Lo: 0, Hi: p.K / 2}
	slab := cube.New(radar.StaggeredOrder, blk.Size(), 2*p.J, p.N)
	for i := range slab.Data {
		slab.Data[i] = complex(float64(i%13), float64(i%7))
	}
	easy, hard := p.EasyBins(), p.HardBins()
	easyPiece := cube.New(radar.BeamformInOrder, len(easy), blk.Size(), p.J)
	hardPiece := cube.New(radar.BeamformInOrder, len(hard), blk.Size(), 2*p.J)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackForBeamformInto(easyPiece, p, slab, blk, easy, p.J)
		PackForBeamformInto(hardPiece, p, slab, blk, hard, 2*p.J)
	}
}

// packReference is the bins-outer corner turn PackForBeamformInto
// replaced: for each bin, every range's channels read with At.
func packReference(dst, slab *cube.Cube, bins []int, channels int) {
	for bi, d := range bins {
		for r := 0; r < slab.Dim[0]; r++ {
			out := dst.Vec(bi, r)
			for j := 0; j < channels; j++ {
				out[j] = slab.At(r, j, d)
			}
		}
	}
}

// assembleReference is the per-row unpack AssembleBeamformInputInto
// replaced: one copy per (piece, bin, range).
func assembleReference(dst *cube.Cube, pieces []*cube.Cube, blocks []cube.Block) {
	for i, piece := range pieces {
		for b := 0; b < piece.Dim[0]; b++ {
			for r := 0; r < blocks[i].Size(); r++ {
				copy(dst.Vec(b, blocks[i].Lo+r), piece.Vec(b, r))
			}
		}
	}
}

// sameBytes reports the first element at which two cubes' storage differs
// bit for bit, or -1.
func sameBytes(a, b *cube.Cube) int {
	for i := range a.Data {
		if math.Float64bits(real(a.Data[i])) != math.Float64bits(real(b.Data[i])) ||
			math.Float64bits(imag(a.Data[i])) != math.Float64bits(imag(b.Data[i])) {
			return i
		}
	}
	return -1
}

// TestCornerTurnByteExact holds the range-outer pack and the run-per-bin
// assemble to the loops they replaced, byte for byte, on every piece and
// every assembled slab of every (side, Doppler worker, beamforming worker)
// block layout of A7 (also the one-worker layout of the serial golden
// scenes), A10 and three uneven assignments from the pipeline tests, at
// Small, Medium and Paper.
func TestCornerTurnByteExact(t *testing.T) {
	layouts := []struct {
		name                    string
		doppler, easyBF, hardBF int
	}{
		{"A7", 1, 1, 1},
		{"A10", 2, 1, 1},
		{"3,2,2,3,3,4,3", 3, 3, 3},
		{"1,3,6,5,2,1,4", 1, 5, 2},
		{"8,4,28,4,7,4,4", 8, 4, 7},
	}
	for _, p := range []radar.Params{radar.Small(), radar.Medium(), radar.Paper()} {
		// Every element a distinct value, so a misplaced one shows.
		full := cube.New(radar.StaggeredOrder, p.K, 2*p.J, p.N)
		for i := range full.Data {
			full.Data[i] = complex(float64(i), -float64(i)-0.5)
		}
		sides := []struct {
			name     string
			bins     []int
			channels int
		}{{"easy", p.EasyBins(), p.J}, {"hard", p.HardBins(), 2 * p.J}}
		for _, l := range layouts {
			kBlocks := cube.BlockPartition(p.K, l.doppler)
			for _, sd := range sides {
				nBF := l.easyBF
				if sd.name == "hard" {
					nBF = l.hardBF
				}
				for bw, pos := range cube.BlockPartition(len(sd.bins), nBF) {
					where := fmt.Sprintf("%dx%dx%d %s %s bf worker %d", p.K, p.J, p.N, l.name, sd.name, bw)
					bins := sd.bins[pos.Lo:pos.Hi]
					pieces := make([]*cube.Cube, len(kBlocks))
					for dw, blk := range kBlocks {
						slab := full.ViewAxis0(blk)
						pieces[dw] = cube.New(radar.BeamformInOrder, len(bins), blk.Size(), sd.channels)
						want := cube.New(radar.BeamformInOrder, len(bins), blk.Size(), sd.channels)
						PackForBeamformInto(pieces[dw], p, slab, blk, bins, sd.channels)
						packReference(want, slab, bins, sd.channels)
						if i := sameBytes(pieces[dw], want); i >= 0 {
							t.Fatalf("%s, Doppler worker %d: piece element %d = %v, bins-outer loop gives %v", where, dw, i, pieces[dw].Data[i], want.Data[i])
						}
					}
					got := cube.New(radar.BeamformInOrder, len(bins), p.K, sd.channels)
					want := cube.New(radar.BeamformInOrder, len(bins), p.K, sd.channels)
					AssembleBeamformInputInto(got, p, pieces, kBlocks, sd.channels)
					assembleReference(want, pieces, kBlocks)
					if i := sameBytes(got, want); i >= 0 {
						t.Fatalf("%s: assembled element %d = %v, per-row copy gives %v", where, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}
