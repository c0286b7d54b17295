package radar

import (
	"math"
	"math/cmplx"
	"testing"

	"pstap/internal/cube"
	"pstap/internal/linalg"
)

func TestPaperParamsValid(t *testing.T) {
	p := Paper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.K != 512 || p.J != 16 || p.N != 128 || p.M != 6 {
		t.Error("paper dims wrong")
	}
	if p.Neasy != 72 || p.Nhard != 56 || p.Stagger != 3 {
		t.Error("paper doppler split wrong")
	}
	if p.NumSegments() != 6 {
		t.Errorf("segments %d, want 6", p.NumSegments())
	}
}

func TestSmallParamsValid(t *testing.T) {
	if err := Small().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMediumParamsValid(t *testing.T) {
	if err := Medium().Validate(); err != nil {
		t.Fatal(err)
	}
	small, med, paper := Small(), Medium(), Paper()
	if med.K <= small.K || med.K >= paper.K {
		t.Error("medium K should sit between small and paper")
	}
}

func TestParamsFor(t *testing.T) {
	for size, want := range map[string]Params{"small": Small(), "medium": Medium(), "paper": Paper()} {
		got, err := ParamsFor(size)
		if err != nil || got.K != want.K || got.J != want.J || got.N != want.N {
			t.Errorf("ParamsFor(%q) = %dx%dx%d, %v", size, got.K, got.J, got.N, err)
		}
	}
	if _, err := ParamsFor("huge"); err == nil || err.Error() != `unknown size "huge"` {
		t.Errorf("ParamsFor(huge) error %v", err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	base := Small()
	cases := []func(*Params){
		func(p *Params) { p.K = 0 },
		func(p *Params) { p.Neasy = p.Neasy + 1 },
		func(p *Params) { p.Nhard = 5; p.Neasy = p.N - 5 },
		func(p *Params) { p.Stagger = 0 },
		func(p *Params) { p.Stagger = p.N },
		func(p *Params) { p.RangeSegmentBoundaries = []int{0, 10} },
		func(p *Params) { p.RangeSegmentBoundaries = []int{0, 20, 10, p.K} },
		func(p *Params) { p.EasyTrainingCPIs = 0 },
		func(p *Params) { p.EasySamplesPerCPI = 1; p.EasyTrainingCPIs = 1 },
		func(p *Params) { p.HardSamplesPerSegment = 0 },
		func(p *Params) { p.WaveformLen = 0 },
		func(p *Params) { p.WaveformLen = p.K + 1 },
		func(p *Params) { p.CFARRef = 0 },
		func(p *Params) { p.CFARScale = 0 },
	}
	for i, mutate := range cases {
		p := base
		p.RangeSegmentBoundaries = append([]int(nil), base.RangeSegmentBoundaries...)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestBinPartition(t *testing.T) {
	p := Paper()
	easy, hard := p.EasyBins(), p.HardBins()
	if len(easy) != p.Neasy || len(hard) != p.Nhard {
		t.Fatalf("easy %d hard %d", len(easy), len(hard))
	}
	// Hard bins hug DC: first 28 and last 28 of 128.
	if !p.IsHardBin(0) || !p.IsHardBin(27) || p.IsHardBin(28) {
		t.Error("lower hard boundary wrong")
	}
	if !p.IsHardBin(127) || !p.IsHardBin(100) || p.IsHardBin(99) {
		t.Error("upper hard boundary wrong")
	}
	seen := map[int]bool{}
	for _, b := range append(easy, hard...) {
		if seen[b] {
			t.Fatalf("bin %d appears twice", b)
		}
		seen[b] = true
	}
	if len(seen) != p.N {
		t.Fatalf("bins cover %d of %d", len(seen), p.N)
	}
}

func TestSegmentOfRange(t *testing.T) {
	p := Paper()
	for _, tc := range []struct{ r, want int }{
		{0, 0}, {74, 0}, {75, 1}, {374, 4}, {375, 5}, {511, 5},
	} {
		if got := p.SegmentOfRange(tc.r); got != tc.want {
			t.Errorf("SegmentOfRange(%d) = %d, want %d", tc.r, got, tc.want)
		}
	}
	if p.SegmentOfRange(512) != -1 || p.SegmentOfRange(-1) != -1 {
		t.Error("out-of-range cells should map to -1")
	}
}

func TestSteeringVectorProperties(t *testing.T) {
	v := SteeringVector(16, 0.3)
	if math.Abs(linalg.Norm2(v)-1) > 1e-12 {
		t.Errorf("steering vector norm %g", linalg.Norm2(v))
	}
	// Boresight: all elements equal.
	b := SteeringVector(8, 0)
	for i := 1; i < 8; i++ {
		if cmplx.Abs(b[i]-b[0]) > 1e-12 {
			t.Fatal("boresight steering should be constant phase")
		}
	}
	// Distinct angles give low correlation for a large array.
	a1 := SteeringVector(32, 0.1)
	a2 := SteeringVector(32, 0.9)
	if c := cmplx.Abs(linalg.Dot(a1, a2)); c > 0.5 {
		t.Errorf("steering correlation %g too high", c)
	}
}

func TestSteeringMatrixShape(t *testing.T) {
	az := ReceiveBeamAzimuths(6, 0, 25*math.Pi/180)
	m := SteeringMatrix(16, az)
	if m.Rows != 16 || m.Cols != 6 {
		t.Fatalf("dims %dx%d", m.Rows, m.Cols)
	}
	for b := 0; b < 6; b++ {
		want := SteeringVector(16, az[b])
		for j := 0; j < 16; j++ {
			if cmplx.Abs(m.At(j, b)-want[j]) > 1e-14 {
				t.Fatal("column mismatch")
			}
		}
	}
}

func TestReceiveBeamAzimuths(t *testing.T) {
	az := ReceiveBeamAzimuths(6, 0, 25*math.Pi/180)
	if len(az) != 6 {
		t.Fatal("len")
	}
	for i := 1; i < 6; i++ {
		if az[i] <= az[i-1] {
			t.Fatal("not increasing")
		}
	}
	// symmetric about center
	if math.Abs(az[0]+az[5]) > 1e-12 {
		t.Errorf("not symmetric: %v", az)
	}
	single := ReceiveBeamAzimuths(1, 0.5, 1)
	if single[0] != 0.5 {
		t.Error("single beam should point at center")
	}
}

func TestStaggeredSteering(t *testing.T) {
	j, n, stag, d := 8, 128, 3, 10
	v := StaggeredSteeringVector(j, 0.2, d, stag, n)
	if len(v) != 2*j {
		t.Fatal("length")
	}
	phase := cmplx.Exp(complex(0, 2*math.Pi*float64(d)*float64(stag)/float64(n)))
	for i := 0; i < j; i++ {
		if cmplx.Abs(v[i+j]-v[i]*phase) > 1e-12 {
			t.Fatal("stagger phase wrong")
		}
	}
}

func TestDopplerSteer(t *testing.T) {
	v := DopplerSteer(16, 0.25)
	// period 4 at fd=0.25
	if cmplx.Abs(v[0]-1) > 1e-14 || cmplx.Abs(v[4]-1) > 1e-12 {
		t.Errorf("phase ramp wrong: %v %v", v[0], v[4])
	}
	if cmplx.Abs(v[1]-complex(0, 1)) > 1e-12 {
		t.Errorf("v[1] = %v, want i", v[1])
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s := DefaultScene(Small())
	a := s.GenerateCPI(3)
	b := s.GenerateCPI(3)
	if !a.Equalish(b, 0) {
		t.Fatal("same CPI index must be bit-identical")
	}
	c := s.GenerateCPI(4)
	if a.Equalish(c, 1e-9) {
		t.Fatal("different CPI indices must differ (fresh noise/clutter)")
	}
}

func TestGenerateShapeAndPower(t *testing.T) {
	p := Small()
	s := DefaultScene(p)
	c := s.GenerateCPI(0)
	if c.Axes != RawOrder || c.Dim != [3]int{p.K, p.J, p.N} {
		t.Fatalf("cube %v", c)
	}
	// Power should be dominated by clutter: roughly K*J*N*(noise+CNR).
	perSample := c.Power() / float64(c.Len())
	want := s.NoisePower + s.Clutter.CNR
	if perSample < want/3 || perSample > want*3 {
		t.Errorf("per-sample power %g, want ~%g", perSample, want)
	}
}

func TestGenerateNoiseOnly(t *testing.T) {
	p := Small()
	s := &Scene{Params: p, NoisePower: 2, Seed: 7}
	c := s.GenerateCPI(0)
	perSample := c.Power() / float64(c.Len())
	if perSample < 1.6 || perSample > 2.4 {
		t.Errorf("noise power %g, want ~2", perSample)
	}
}

func TestGenerateCleanTargetLandsInBin(t *testing.T) {
	// Noise-free, clutter-free single target: after an FFT along pulses the
	// energy must concentrate in the target's Doppler bin.
	p := Small()
	s := &Scene{
		Params:  p,
		Targets: []Target{{Range: 5, Azimuth: 0, Doppler: 0.25, Power: 1}},
		Seed:    1,
	}
	c := s.GenerateCPI(0)
	tgt := s.Targets[0]
	binWant := tgt.DopplerBin(p.N)
	vec := append([]complex128(nil), c.Vec(tgt.Range, 0)...)
	// naive DFT peak search
	best, bestPow := -1, 0.0
	for k := 0; k < p.N; k++ {
		var sum complex128
		for t := 0; t < p.N; t++ {
			sum += vec[t] * cmplx.Exp(complex(0, -2*math.Pi*float64(k)*float64(t)/float64(p.N)))
		}
		if pw := real(sum)*real(sum) + imag(sum)*imag(sum); pw > bestPow {
			best, bestPow = k, pw
		}
	}
	if best != binWant {
		t.Errorf("target energy peaked in bin %d, want %d", best, binWant)
	}
}

func TestClutterSpreadWidensRidge(t *testing.T) {
	// With ICM spread, clutter energy leaks further from the ridge bins: a
	// fixed far-from-DC bin must carry more clutter power than in the
	// spread-free scene.
	p := Small()
	mk := func(spread float64) *cube.Cube {
		sc := &Scene{
			Params:  p,
			Clutter: ClutterModel{Patches: 9, CNR: 1000, Beta: 0.1, Spread: spread},
			Seed:    6,
		}
		return sc.GenerateCPI(0)
	}
	binPower := func(c *cube.Cube, bin int) float64 {
		var e float64
		for r := 0; r < p.K; r++ {
			for j := 0; j < p.J; j++ {
				var sum complex128
				vec := c.Vec(r, j)
				for tt := 0; tt < p.N; tt++ {
					sum += vec[tt] * cmplx.Exp(complex(0, -2*math.Pi*float64(bin)*float64(tt)/float64(p.N)))
				}
				e += real(sum)*real(sum) + imag(sum)*imag(sum)
			}
		}
		return e
	}
	farBin := p.N / 4 // a quarter band away from the narrow ridge
	narrow := binPower(mk(0), farBin)
	wide := binPower(mk(0.15), farBin)
	if wide < 2*narrow {
		t.Errorf("spread did not widen the ridge: far-bin power %g vs %g", wide, narrow)
	}
}

func TestChirpUnitEnergy(t *testing.T) {
	s := DefaultScene(Small())
	c := s.Chirp()
	if len(c) != s.Params.WaveformLen {
		t.Fatal("length")
	}
	var e float64
	for _, v := range c {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(e-1) > 1e-12 {
		t.Errorf("chirp energy %g", e)
	}
}

func TestRangeGain(t *testing.T) {
	s := DefaultScene(Small())
	if s.RangeGain(10) != 1 {
		t.Error("disabled decay should give 1")
	}
	s.RangeRef = 100
	if g0 := s.RangeGain(0); math.Abs(g0-1) > 1e-12 {
		t.Errorf("gain at 0 = %g", g0)
	}
	if s.RangeGain(100) >= s.RangeGain(50) {
		t.Error("gain must decay with range")
	}
}

func TestSceneValidate(t *testing.T) {
	s := DefaultScene(Small())
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *s
	bad.Targets = []Target{{Range: -1}}
	if bad.Validate() == nil {
		t.Error("bad target range should fail")
	}
	bad = *s
	bad.Targets = []Target{{Range: 0, Doppler: 0.5}}
	if bad.Validate() == nil {
		t.Error("bad doppler should fail")
	}
	bad = *s
	bad.NoisePower = -1
	if bad.Validate() == nil {
		t.Error("negative noise should fail")
	}
}

func TestTargetDopplerBin(t *testing.T) {
	if (Target{Doppler: 0.25}).DopplerBin(128) != 32 {
		t.Error("positive doppler bin")
	}
	if (Target{Doppler: -0.25}).DopplerBin(128) != 96 {
		t.Error("negative doppler wraps")
	}
	if (Target{Doppler: 0}).DopplerBin(128) != 0 {
		t.Error("zero doppler")
	}
}

func BenchmarkGenerateCPISmall(b *testing.B) {
	s := DefaultScene(Small())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.GenerateCPI(i)
	}
}
