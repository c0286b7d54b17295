package cube

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randCube(rng *rand.Rand, axes Order, d0, d1, d2 int) *Cube {
	c := New(axes, d0, d1, d2)
	for i := range c.Data {
		c.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return c
}

func TestAtSetVec(t *testing.T) {
	c := New(Order{Range, Channel, Pulse}, 3, 4, 5)
	c.Set(2, 3, 4, complex(1, 2))
	if c.At(2, 3, 4) != complex(1, 2) {
		t.Fatal("At/Set mismatch")
	}
	v := c.Vec(2, 3)
	if len(v) != 5 || v[4] != complex(1, 2) {
		t.Fatal("Vec view wrong")
	}
	v[0] = 7
	if c.At(2, 3, 0) != 7 {
		t.Fatal("Vec must alias storage")
	}
}

func TestDimOf(t *testing.T) {
	c := New(Order{Range, Channel, Pulse}, 3, 4, 5)
	if c.DimOf(Range) != 3 || c.DimOf(Channel) != 4 || c.DimOf(Pulse) != 5 {
		t.Fatal("DimOf wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("missing axis should panic")
		}
	}()
	c.DimOf(Beam)
}

func TestReorderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := randCube(rng, Order{Range, Channel, Pulse}, 8, 6, 10)
	orders := []Order{
		{Pulse, Range, Channel},
		{Channel, Pulse, Range},
		{Pulse, Channel, Range},
		{Range, Pulse, Channel},
		{Channel, Range, Pulse},
	}
	for _, o := range orders {
		r := c.Reorder(o)
		back := r.Reorder(c.Axes)
		if !back.Equalish(c, 0) {
			t.Errorf("roundtrip via %v failed", o)
		}
	}
}

func TestReorderElementMapping(t *testing.T) {
	c := New(Order{Range, Channel, Pulse}, 2, 3, 4)
	c.Set(1, 2, 3, 42)
	r := c.Reorder(Order{Pulse, Range, Channel})
	if r.Dim != [3]int{4, 2, 3} {
		t.Fatalf("dims %v", r.Dim)
	}
	if r.At(3, 1, 2) != 42 {
		t.Fatal("element did not move with its axes")
	}
}

func TestReorderIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := randCube(rng, Order{Doppler, Beam, Range}, 4, 3, 5)
	r := c.Reorder(c.Axes)
	if !r.Equalish(c, 0) {
		t.Fatal("identity reorder should copy")
	}
	r.Data[0] = 99
	if c.Data[0] == 99 {
		t.Fatal("identity reorder must not alias")
	}
}

func TestReorderBadOrderPanics(t *testing.T) {
	c := New(Order{Range, Channel, Pulse}, 1, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("reorder to missing axis should panic")
		}
	}()
	c.Reorder(Order{Range, Channel, Beam})
}

func TestReorderPreservesPowerQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d0, d1, d2 := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		c := randCube(rng, Order{Range, Channel, Pulse}, d0, d1, d2)
		r := c.Reorder(Order{Pulse, Channel, Range})
		diff := c.Power() - r.Power()
		return diff < 1e-9 && diff > -1e-9 && r.Len() == c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBlockPartitionCoversExactly(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)
		p := 1 + int(pRaw)%16
		blocks := BlockPartition(n, p)
		if len(blocks) != p {
			return false
		}
		covered := 0
		prev := 0
		for _, b := range blocks {
			if b.Lo != prev || b.Hi < b.Lo {
				return false
			}
			covered += b.Size()
			prev = b.Hi
		}
		if covered != n || prev != n {
			return false
		}
		// near-even: sizes differ by at most 1
		min, max := n, 0
		for _, b := range blocks {
			if b.Size() < min {
				min = b.Size()
			}
			if b.Size() > max {
				max = b.Size()
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBlockPartitionPaperSizes(t *testing.T) {
	// K=512 over 32 Doppler nodes → 16 each; Nhard=56 over 28 → 2 each.
	for _, tc := range []struct{ n, p, want int }{
		{512, 32, 16}, {512, 8, 64}, {56, 28, 2}, {72, 16, 5},
	} {
		blocks := BlockPartition(tc.n, tc.p)
		if blocks[0].Size() != tc.want && blocks[0].Size() != tc.want+1 {
			t.Errorf("n=%d p=%d: first block %d", tc.n, tc.p, blocks[0].Size())
		}
	}
}

func TestSlicePasteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randCube(rng, Order{Range, Channel, Pulse}, 16, 4, 6)
	dst := New(c.Axes, 16, 4, 6)
	for _, b := range BlockPartition(16, 5) {
		dst.PasteAxis0(b, c.SliceAxis0(b))
	}
	if !dst.Equalish(c, 0) {
		t.Fatal("slice+paste should reassemble the cube")
	}
}

func TestSliceBoundsPanics(t *testing.T) {
	c := New(Order{Range, Channel, Pulse}, 4, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range slice should panic")
		}
	}()
	c.SliceAxis0(Block{2, 6})
}

func TestGatherAxis0(t *testing.T) {
	c := New(Order{Range, Channel, Pulse}, 5, 1, 2)
	for i := 0; i < 5; i++ {
		c.Set(i, 0, 0, complex(float64(i), 0))
	}
	g := c.GatherAxis0([]int{4, 0, 2})
	if g.Dim[0] != 3 {
		t.Fatalf("gathered dim %d", g.Dim[0])
	}
	for o, want := range []float64{4, 0, 2} {
		if real(g.At(o, 0, 0)) != want {
			t.Errorf("gather row %d = %v", o, g.At(o, 0, 0))
		}
	}
}

func TestEvenlySpaced(t *testing.T) {
	idx := EvenlySpaced(170, 10)
	if len(idx) != 10 {
		t.Fatalf("len %d", len(idx))
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatal("indices must be strictly increasing")
		}
	}
	if idx[0] != 0 || idx[9] >= 170 {
		t.Errorf("range wrong: %v", idx)
	}
	if got := EvenlySpaced(3, 10); len(got) != 3 {
		t.Errorf("clamped count: %v", got)
	}
	if EvenlySpaced(0, 5) != nil || EvenlySpaced(5, 0) != nil {
		t.Error("degenerate args should be nil")
	}
}

func TestPowerAndBytes(t *testing.T) {
	c := New(Order{Range, Channel, Pulse}, 2, 2, 2)
	c.Set(0, 0, 0, complex(3, 4))
	if c.Power() != 25 {
		t.Errorf("power %g", c.Power())
	}
	if c.Bytes() != 64 {
		t.Errorf("bytes %d", c.Bytes())
	}
	rc := NewReal(Order{Doppler, Beam, Range}, 2, 2, 2)
	if rc.Bytes() != 32 {
		t.Errorf("real bytes %d", rc.Bytes())
	}
}

func TestRealCubeOps(t *testing.T) {
	rc := NewReal(Order{Doppler, Beam, Range}, 2, 3, 4)
	rc.Set(1, 2, 3, 9.5)
	if rc.At(1, 2, 3) != 9.5 {
		t.Fatal("real At/Set")
	}
	v := rc.Vec(1, 2)
	if v[3] != 9.5 {
		t.Fatal("real Vec")
	}
	cl := rc.Clone()
	if cl.MaxAbsDiff(rc) != 0 {
		t.Fatal("clone differs")
	}
	cl.Set(0, 0, 0, 1)
	if rc.At(0, 0, 0) == 1 {
		t.Fatal("clone aliases")
	}
	other := NewReal(Order{Doppler, Beam, Range}, 2, 3, 5)
	if d := rc.MaxAbsDiff(other); d == 0 {
		t.Fatal("shape mismatch must not compare equal")
	}
}

func TestComplexCubeMaxAbsDiff(t *testing.T) {
	a := New(Order{Range, Channel, Pulse}, 2, 2, 2)
	b := a.Clone()
	b.Set(1, 1, 1, complex(3, 4))
	if d := a.MaxAbsDiff(b); math.Abs(d-5) > 1e-12 {
		t.Errorf("diff %g, want 5", d)
	}
	other := New(Order{Range, Channel, Pulse}, 1, 2, 2)
	if !math.IsInf(a.MaxAbsDiff(other), 1) {
		t.Error("shape mismatch should give +Inf")
	}
}

func TestRealCubeSlicePaste(t *testing.T) {
	rc := NewReal(Order{Doppler, Beam, Range}, 6, 2, 3)
	for i := range rc.Data {
		rc.Data[i] = float64(i)
	}
	s := rc.SliceAxis0(Block{Lo: 2, Hi: 5})
	if s.Dim[0] != 3 || s.At(0, 0, 0) != rc.At(2, 0, 0) {
		t.Fatal("real slice wrong")
	}
	dst := NewReal(rc.Axes, 6, 2, 3)
	dst.PasteAxis0(Block{Lo: 2, Hi: 5}, s)
	for d := 2; d < 5; d++ {
		for b := 0; b < 2; b++ {
			for r := 0; r < 3; r++ {
				if dst.At(d, b, r) != rc.At(d, b, r) {
					t.Fatal("real paste wrong")
				}
			}
		}
	}
	if rc.Len() != 36 {
		t.Errorf("len %d", rc.Len())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad real slice should panic")
			}
		}()
		rc.SliceAxis0(Block{Lo: 4, Hi: 9})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad real paste should panic")
			}
		}()
		dst.PasteAxis0(Block{Lo: 0, Hi: 2}, s)
	}()
}

func TestConstructorPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative dims should panic")
			}
		}()
		New(Order{Range, Channel, Pulse}, -1, 2, 2)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative real dims should panic")
			}
		}()
		NewReal(Order{Range, Channel, Pulse}, 1, -2, 2)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad partition should panic")
			}
		}()
		BlockPartition(4, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad paste should panic")
			}
		}()
		c := New(Order{Range, Channel, Pulse}, 4, 1, 1)
		c.PasteAxis0(Block{Lo: 0, Hi: 2}, New(Order{Range, Channel, Pulse}, 3, 1, 1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad gather index should panic")
			}
		}()
		New(Order{Range, Channel, Pulse}, 2, 1, 1).GatherAxis0([]int{5})
	}()
}

func TestEqualishShapeMismatch(t *testing.T) {
	a := New(Order{Range, Channel, Pulse}, 1, 1, 1)
	b := New(Order{Pulse, Channel, Range}, 1, 1, 1)
	if a.Equalish(b, 1) {
		t.Error("different orders must not be equal")
	}
	c := New(Order{Range, Channel, Pulse}, 1, 1, 2)
	if a.Equalish(c, 1) {
		t.Error("different dims must not be equal")
	}
}

func TestStringers(t *testing.T) {
	c := New(Order{Range, Channel, Pulse}, 1, 2, 3)
	if c.String() == "" || c.Axes.String() == "" {
		t.Error("empty String()")
	}
	if Axis(99).String() == "" {
		t.Error("unknown axis String()")
	}
}

func BenchmarkReorderPaperSize(b *testing.B) {
	// K x 2J x N → N x K x 2J, the Doppler→BF reorganization at full size.
	rng := rand.New(rand.NewSource(1))
	c := randCube(rng, Order{Range, Channel, Doppler}, 512, 32, 128)
	b.ReportAllocs()
	b.SetBytes(c.Bytes())
	for i := 0; i < b.N; i++ {
		c.Reorder(Order{Doppler, Range, Channel})
	}
}
