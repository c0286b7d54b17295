package stap

import (
	"testing"

	"pstap/internal/cube"
	"pstap/internal/radar"
)

func TestDopplerFilterThreadedBitIdentical(t *testing.T) {
	p := radar.Small()
	sc := radar.DefaultScene(p)
	raw := sc.GenerateCPI(0)
	blk := cube.Block{Lo: 8, Hi: 40}
	want := DopplerFilterBlock(p, raw, nil, blk, nil)
	for _, threads := range []int{2, 3, 7, 64} {
		got := cube.New(radar.StaggeredOrder, blk.Size(), 2*p.J, p.N)
		new(Workspace).DopplerFilterBlock(p, got, raw, nil, blk, threads)
		if !got.Equalish(want, 0) {
			t.Fatalf("threads=%d differs from serial", threads)
		}
		// block-local input path
		local := raw.SliceAxis0(blk)
		got2 := cube.New(radar.StaggeredOrder, blk.Size(), 2*p.J, p.N)
		new(Workspace).DopplerFilterBlock(p, got2, local, nil, blk, threads)
		if !got2.Equalish(want, 0) {
			t.Fatalf("threads=%d local-input differs", threads)
		}
	}
}

func TestBeamformThreadedBitIdentical(t *testing.T) {
	p := radar.Small()
	sc := radar.DefaultScene(p)
	d := DopplerFilter(p, sc.GenerateCPI(0), nil).Reorder(radar.BeamformInOrder)
	w := SteeringWeights(p, sc.BeamAzimuths())

	easyBins := p.EasyBins()
	slab := gatherBins(d, easyBins, p.J)
	want := cube.New(radar.BeamOrder, len(easyBins), p.M, p.K)
	BeamformEasySlab(p, slab, w.Easy, want)
	for _, threads := range []int{2, 4, 9} {
		got := cube.New(radar.BeamOrder, len(easyBins), p.M, p.K)
		new(Workspace).BeamformEasySlab(p, slab, w.Easy, got, threads)
		if !got.Equalish(want, 0) {
			t.Fatalf("easy threads=%d differs", threads)
		}
	}

	hardBins := p.HardBins()
	hslab := gatherBins(d, hardBins, 2*p.J)
	hwant := cube.New(radar.BeamOrder, len(hardBins), p.M, p.K)
	BeamformHardSlab(p, hslab, w.Hard, hwant)
	for _, threads := range []int{2, 5} {
		got := cube.New(radar.BeamOrder, len(hardBins), p.M, p.K)
		new(Workspace).BeamformHardSlab(p, hslab, w.Hard, got, threads)
		if !got.Equalish(hwant, 0) {
			t.Fatalf("hard threads=%d differs", threads)
		}
	}
}

func TestPulseCompressThreadedBitIdentical(t *testing.T) {
	p := radar.Small()
	sc := radar.DefaultScene(p)
	mf := NewMatchedFilter(p.K, sc.Chirp())
	beams := cube.New(radar.BeamOrder, p.N, p.M, p.K)
	for i := range beams.Data {
		beams.Data[i] = complex(float64(i%11)-5, float64(i%7)-3)
	}
	want := cube.NewReal(radar.BeamOrder, p.N, p.M, p.K)
	PulseCompressRows(p, beams, mf, want, 0, p.N)
	for _, threads := range []int{2, 3, 16} {
		got := cube.NewReal(radar.BeamOrder, p.N, p.M, p.K)
		new(Workspace).PulseCompressRows(p, beams, mf, got, 0, p.N, threads)
		if got.MaxAbsDiff(want) != 0 {
			t.Fatalf("threads=%d differs", threads)
		}
	}
}

func TestCFARThreadedSameDetections(t *testing.T) {
	p := radar.Small()
	pw := cube.NewReal(radar.BeamOrder, p.N, p.M, p.K)
	for i := range pw.Data {
		pw.Data[i] = 1
	}
	pw.Set(2, 0, 10, 1e6)
	pw.Set(7, 1, 40, 1e6)
	pw.Set(13, 1, 50, 1e6)
	var want []Detection
	CFARRows(p, pw, 0, p.N, false, &want)
	for _, threads := range []int{2, 4, 32} {
		var got []Detection
		new(Workspace).CFARRows(p, pw, 0, p.N, false, &got, threads)
		if len(got) != len(want) {
			t.Fatalf("threads=%d: %d vs %d detections", threads, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("threads=%d detection %d differs", threads, i)
			}
		}
	}
	// Local-slab indexing (the pipeline's CFAR worker case): slab row 0 is
	// global bin 4.
	slab := pw.SliceAxis0(cube.Block{Lo: 4, Hi: 14})
	var wantLocal []Detection
	CFARRows(p, slab, 4, 14, true, &wantLocal)
	for _, threads := range []int{2, 3} {
		var got []Detection
		new(Workspace).CFARRows(p, slab, 4, 14, true, &got, threads)
		if len(got) != len(wantLocal) {
			t.Fatalf("local threads=%d: %d vs %d detections", threads, len(got), len(wantLocal))
		}
		for i := range wantLocal {
			if got[i] != wantLocal[i] {
				t.Fatalf("local threads=%d detection %d differs: %v vs %v", threads, i, got[i], wantLocal[i])
			}
		}
	}

	// empty range
	var none []Detection
	new(Workspace).CFARRows(p, pw, 3, 3, false, &none, 4)
	if len(none) != 0 {
		t.Error("empty range should yield nothing")
	}
}

func BenchmarkDopplerFilterThreaded(b *testing.B) {
	p := radar.Paper()
	raw := cube.New(radar.RawOrder, p.K, p.J, p.N)
	blk := cube.Block{Lo: 0, Hi: p.K}
	out := cube.New(radar.StaggeredOrder, blk.Size(), 2*p.J, p.N)
	var ws Workspace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws.DopplerFilterBlock(p, out, raw, nil, blk, 3)
	}
}
