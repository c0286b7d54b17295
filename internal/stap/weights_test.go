package stap

import (
	"math"
	"math/cmplx"
	"testing"

	"pstap/internal/cube"
	"pstap/internal/linalg"
	"pstap/internal/radar"
)

func TestSteeringWeightsShape(t *testing.T) {
	p := radar.Small()
	s := radar.DefaultScene(p)
	w := SteeringWeights(p, s.BeamAzimuths())
	if len(w.Easy) != p.Neasy {
		t.Fatalf("easy weights %d", len(w.Easy))
	}
	if len(w.Hard) != p.NumSegments() || len(w.Hard[0]) != p.Nhard {
		t.Fatalf("hard weights %dx%d", len(w.Hard), len(w.Hard[0]))
	}
	for _, m := range w.Easy {
		if m.Rows != p.J || m.Cols != p.M {
			t.Fatalf("easy dims %dx%d", m.Rows, m.Cols)
		}
	}
	for _, seg := range w.Hard {
		for _, m := range seg {
			if m.Rows != 2*p.J || m.Cols != p.M {
				t.Fatalf("hard dims %dx%d", m.Rows, m.Cols)
			}
		}
	}
}

func TestSteeringWeightsUnitNorm(t *testing.T) {
	p := radar.Small()
	s := radar.DefaultScene(p)
	w := SteeringWeights(p, s.BeamAzimuths())
	for seg := range w.Hard {
		for _, m := range w.Hard[seg] {
			for b := 0; b < p.M; b++ {
				col := make([]complex128, m.Rows)
				for j := range col {
					col[j] = m.At(j, b)
				}
				if math.Abs(linalg.Norm2(col)-1) > 1e-12 {
					t.Fatal("hard steering weight not unit norm")
				}
			}
		}
	}
}

// noiseDoppler builds a Doppler-filtered cube from a noise-only scene.
func noiseDoppler(p radar.Params, seed int64, cpi int) *stateCubes {
	s := &radar.Scene{Params: p, NoisePower: 1, Seed: seed}
	return &stateCubes{scene: s, cpi: cpi}
}

type stateCubes struct {
	scene *radar.Scene
	cpi   int
}

func TestEasyWeightsNoiseOnlyStayNearSteering(t *testing.T) {
	// With white-noise training data the constrained solution's direction
	// must stay close to the steering vector (S^H S ~ sigma^2 I, so the
	// penalty term fully determines the direction).
	p := radar.Small()
	sc := &radar.Scene{Params: p, NoisePower: 1, Seed: 11}
	beamAz := sc.BeamAzimuths()
	es := NewEasyWeightState(p, beamAz)
	for i := 0; i < p.EasyTrainingCPIs; i++ {
		es.Observe(DopplerFilter(p, sc.GenerateCPI(i), nil))
	}
	w := es.Compute()
	steer := radar.SteeringMatrix(p.J, beamAz)
	for i := range w {
		for b := 0; b < p.M; b++ {
			wc := make([]complex128, p.J)
			sv := make([]complex128, p.J)
			for j := 0; j < p.J; j++ {
				wc[j] = w[i].At(j, b)
				sv[j] = steer.At(j, b)
			}
			linalg.Normalize(sv)
			if c := cmplx.Abs(linalg.Dot(wc, sv)); c < 0.85 {
				t.Errorf("bin %d beam %d: |<w,ws>| = %g, want near 1", i, b, c)
			}
		}
	}
}

func TestEasyWeightsNullInterference(t *testing.T) {
	// Plant a strong interferer (tone across all easy bins) away from the
	// mainbeam: adapted weights must attenuate it much more than the
	// steering weights do, while keeping mainbeam gain.
	p := radar.Small()
	interfAz := 0.9 // far sidelobe
	sc := &radar.Scene{
		Params:     p,
		NoisePower: 0.01,
		// Broadband-in-Doppler interference: model as clutter with a flat
		// ridge centered so it covers easy bins too.
		Clutter: radar.ClutterModel{Patches: 1, CNR: 10000, Beta: 0},
		Seed:    5,
	}
	// A single patch with Beta=0 sits at azimuth from the patch grid:
	// patches=1 places it at az=0 (mainbeam) which we do not want; instead
	// build training data manually from a synthetic interferer.
	_ = sc
	beamAz := radar.ReceiveBeamAzimuths(p.M, 0, 25*math.Pi/180)
	es := NewEasyWeightState(p, beamAz)
	// Manual training snapshots: interference + small noise, injected via a
	// synthetic staggered cube.
	intSV := radar.SteeringVector(p.J, interfAz)
	for c := 0; c < p.EasyTrainingCPIs; c++ {
		d := synthStaggered(p, func(r, j, bin int) complex128 {
			if j < p.J {
				phase := cmplx.Exp(complex(0, float64((r*31+bin*17+c*7)%97)))
				return complex(100, 0) * intSV[j] * phase
			}
			return 0
		})
		es.Observe(d)
	}
	w := es.Compute()
	for i := range w {
		for b := 0; b < p.M; b++ {
			wc := make([]complex128, p.J)
			sv := radar.SteeringVector(p.J, beamAz[b])
			for j := 0; j < p.J; j++ {
				wc[j] = w[i].At(j, b)
			}
			gInt := cmplx.Abs(linalg.Dot(wc, intSV))
			gMain := cmplx.Abs(linalg.Dot(wc, sv))
			if gMain < 0.3 {
				t.Errorf("bin %d beam %d: mainbeam gain collapsed to %g", i, b, gMain)
			}
			if gInt > gMain*0.05 {
				t.Errorf("bin %d beam %d: interferer gain %g vs mainbeam %g (no null)", i, b, gInt, gMain)
			}
		}
	}
}

// synthStaggered builds a staggered-order cube from a generator function.
func synthStaggered(p radar.Params, f func(r, j, bin int) complex128) *cubeT {
	c := newStag(p)
	for r := 0; r < p.K; r++ {
		for j := 0; j < 2*p.J; j++ {
			for d := 0; d < p.N; d++ {
				c.Set(r, j, d, f(r, j, d))
			}
		}
	}
	return c
}

func TestHardWeightsRecursiveStateConverges(t *testing.T) {
	// Feeding statistically identical CPIs must drive the recursive R to a
	// steady state (forgetting factor < 1 gives geometric convergence of
	// the Gram matrix scale).
	p := radar.Small()
	sc := radar.DefaultScene(p)
	beamAz := sc.BeamAzimuths()
	hs := NewHardWeightState(p, beamAz)
	var prevNorm float64
	var deltas []float64
	for i := 0; i < 8; i++ {
		hs.Observe(DopplerFilter(p, sc.GenerateCPI(i), nil))
		n := linalg.FrobNorm(hs.r[0][0])
		if i > 0 {
			deltas = append(deltas, math.Abs(n-prevNorm)/n)
		}
		prevNorm = n
	}
	if !hs.Ready() {
		t.Fatal("state should be ready after observations")
	}
	// Late deltas must be much smaller than early ones.
	if deltas[len(deltas)-1] > 0.5*deltas[0]+0.05 {
		t.Errorf("R norm not converging: deltas %v", deltas)
	}
}

func TestHardWeightsNullClutter(t *testing.T) {
	// Strong zero-Doppler clutter in the hard bins: hard weights must
	// attenuate the clutter direction relative to the mainbeam target
	// response. The clutter at azimuth az sits in the staggered space as
	// the (steering(az), steering(az)*phase(bin)) direction.
	p := radar.Small()
	sc := radar.DefaultScene(p)
	sc.Targets = nil
	sc.Clutter.CNR = 10000
	sc.NoisePower = 0.01
	beamAz := sc.BeamAzimuths()
	hs := NewHardWeightState(p, beamAz)
	for i := 0; i < 6; i++ {
		hs.Observe(DopplerFilter(p, sc.GenerateCPI(i), nil))
	}
	w := hs.Compute()
	hardBins := p.HardBins()
	// Check the DC bin (strongest clutter) in segment 0.
	binIdx := 0
	d := hardBins[binIdx]
	for b := 0; b < p.M; b++ {
		wc := make([]complex128, 2*p.J)
		for j := range wc {
			wc[j] = w[0][binIdx].At(j, b)
		}
		target := radar.StaggeredSteeringVector(p.J, beamAz[b], d, p.Stagger, p.N)
		gMain := cmplx.Abs(linalg.Dot(wc, target))
		// Clutter direction at boresight-ish azimuth away from the beam:
		clut := radar.StaggeredSteeringVector(p.J, 0.9, d, p.Stagger, p.N)
		gClut := cmplx.Abs(linalg.Dot(wc, clut))
		if gMain < 0.2 {
			t.Errorf("beam %d: mainbeam gain collapsed (%g)", b, gMain)
		}
		_ = gClut // sidelobe response checked via SINR below
	}
}

func TestHardWeightsImproveSINR(t *testing.T) {
	// End-to-end SINR test at one hard bin: adapted weights must beat the
	// non-adaptive steering weights against clutter by a clear margin.
	p := radar.Small()
	sc := radar.DefaultScene(p)
	sc.Targets = nil
	sc.Clutter.CNR = 1000
	sc.NoisePower = 1
	beamAz := sc.BeamAzimuths()
	hs := NewHardWeightState(p, beamAz)
	var training *cubeT
	for i := 0; i < 6; i++ {
		training = DopplerFilter(p, sc.GenerateCPI(i), nil)
		hs.Observe(training)
	}
	w := hs.Compute()
	steerW := SteeringWeights(p, beamAz)

	// Held-out clutter realization:
	test := DopplerFilter(p, sc.GenerateCPI(100), nil)
	binIdx := 0
	d := p.HardBins()[binIdx]
	b := p.M / 2
	target := radar.StaggeredSteeringVector(p.J, beamAz[b], d, p.Stagger, p.N)

	residual := func(wm *linalg.Matrix) (outPow, sigGain float64) {
		wc := make([]complex128, 2*p.J)
		for j := range wc {
			wc[j] = wm.At(j, b)
		}
		lo, hi := p.Segment(0)
		for r := lo; r < hi; r++ {
			var y complex128
			for j := 0; j < 2*p.J; j++ {
				y += complex(real(wc[j]), -imag(wc[j])) * test.At(r, j, d)
			}
			outPow += real(y)*real(y) + imag(y)*imag(y)
		}
		sigGain = cmplx.Abs(linalg.Dot(wc, target))
		return outPow, sigGain
	}
	clutAdapt, gainAdapt := residual(w[0][binIdx])
	clutSteer, gainSteer := residual(steerW.Hard[0][binIdx])
	sinrAdapt := gainAdapt * gainAdapt / clutAdapt
	sinrSteer := gainSteer * gainSteer / clutSteer
	improvement := 10 * math.Log10(sinrAdapt/sinrSteer)
	if improvement < 3 {
		t.Errorf("adaptive SINR improvement %.1f dB, want >= 3 dB", improvement)
	}
	t.Logf("SINR improvement: %.1f dB", improvement)
}

func TestEasyStateHistoryWindow(t *testing.T) {
	p := radar.Small()
	sc := radar.DefaultScene(p)
	es := NewEasyWeightState(p, sc.BeamAzimuths())
	if es.Ready() {
		t.Fatal("fresh state should not be ready")
	}
	for i := 0; i < p.EasyTrainingCPIs+3; i++ {
		es.Observe(DopplerFilter(p, sc.GenerateCPI(i), nil))
	}
	if len(es.hist) != p.EasyTrainingCPIs {
		t.Fatalf("history length %d, want %d", len(es.hist), p.EasyTrainingCPIs)
	}
}

func TestComputeWithoutObservationsFallsBack(t *testing.T) {
	p := radar.Small()
	sc := radar.DefaultScene(p)
	beamAz := sc.BeamAzimuths()
	es := NewEasyWeightState(p, beamAz)
	w := es.Compute()
	steer := radar.SteeringMatrix(p.J, beamAz)
	for _, m := range w {
		if !m.Equalish(steer, 1e-12) {
			t.Fatal("no-history easy weights must be steering weights")
		}
	}
	hs := NewHardWeightState(p, beamAz)
	if hs.Ready() {
		t.Fatal("fresh hard state should not be ready")
	}
	hw := hs.Compute()
	fb := SteeringWeights(p, beamAz)
	for seg := range hw {
		for i := range hw[seg] {
			if !hw[seg][i].Equalish(fb.Hard[seg][i], 1e-12) {
				t.Fatal("no-history hard weights must be staggered steering")
			}
		}
	}
}

func TestWeightColumnsUnitNorm(t *testing.T) {
	p := radar.Small()
	sc := radar.DefaultScene(p)
	es := NewEasyWeightState(p, sc.BeamAzimuths())
	hs := NewHardWeightState(p, sc.BeamAzimuths())
	for i := 0; i < 4; i++ {
		d := DopplerFilter(p, sc.GenerateCPI(i), nil)
		es.Observe(d)
		hs.Observe(d)
	}
	for _, m := range es.Compute() {
		for b := 0; b < p.M; b++ {
			col := make([]complex128, m.Rows)
			for j := range col {
				col[j] = m.At(j, b)
			}
			if math.Abs(linalg.Norm2(col)-1) > 1e-9 {
				t.Fatal("easy weight column not unit norm")
			}
		}
	}
	for _, seg := range hs.Compute() {
		for _, m := range seg {
			for b := 0; b < p.M; b++ {
				col := make([]complex128, m.Rows)
				for j := range col {
					col[j] = m.At(j, b)
				}
				if math.Abs(linalg.Norm2(col)-1) > 1e-9 {
					t.Fatal("hard weight column not unit norm")
				}
			}
		}
	}
}

func BenchmarkEasyWeightsSmall(b *testing.B) {
	p := radar.Small()
	sc := radar.DefaultScene(p)
	es := NewEasyWeightState(p, sc.BeamAzimuths())
	for i := 0; i < p.EasyTrainingCPIs; i++ {
		es.Observe(DopplerFilter(p, sc.GenerateCPI(i), nil))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		es.Compute()
	}
}

func BenchmarkHardWeightsSmall(b *testing.B) { benchHardWeights(b, radar.Small()) }

func BenchmarkHardWeightsMedium(b *testing.B) { benchHardWeights(b, radar.Medium()) }

// benchHardWeights times one CPI of the hard weight task as its worker
// runs it: ObserveRows over training rows already extracted (the Doppler
// task's payload) and ComputeInto matrices the worker owns, so a warm
// state allocates nothing.
func benchHardWeights(b *testing.B, p radar.Params) {
	sc := radar.DefaultScene(p)
	hs := NewHardWeightState(p, sc.BeamAzimuths())
	rows := ExtractHardRows(p, DopplerFilter(p, sc.GenerateCPI(0), nil), cube.Block{Lo: 0, Hi: p.K}, hs.Bins())
	out := hs.Compute()
	for i := 0; i < 2; i++ { // fill both of each factor's buffers
		hs.ObserveRows(rows)
		hs.ComputeInto(out)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs.ObserveRows(rows)
		hs.ComputeInto(out)
	}
}

// BenchmarkEasyWeightsMedium times one CPI of the easy weight task the
// same way: ObserveRows over extracted rows into a full history, then
// ComputeInto owned matrices.
func BenchmarkEasyWeightsMedium(b *testing.B) {
	p := radar.Medium()
	sc := radar.DefaultScene(p)
	es := NewEasyWeightState(p, sc.BeamAzimuths())
	rows := ExtractEasyRows(p, DopplerFilter(p, sc.GenerateCPI(0), nil), cube.Block{Lo: 0, Hi: p.K}, es.Bins())
	out := es.Compute()
	for i := 0; i < p.EasyTrainingCPIs; i++ {
		es.ObserveRows(rows)
	}
	es.ComputeInto(out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		es.ObserveRows(rows)
		es.ComputeInto(out)
	}
}

// BenchmarkDampedSolveMedium is the solve constrainedWeightsFromR runs at
// Medium size, on a warm solver: the 32 x 16 damped stack [R; κI] and
// M = 4 beams.
func BenchmarkDampedSolveMedium(b *testing.B) {
	p := radar.Medium()
	sc := radar.DefaultScene(p)
	hs := NewHardWeightState(p, sc.BeamAzimuths())
	hs.Observe(DopplerFilter(p, sc.GenerateCPI(0), nil))
	r, steer, kEff := hs.r[0][0], hs.steer[0], p.BeamConstraintWt*hs.rms[0][0]
	var sv solver
	var dst linalg.Matrix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sv.fromR(&dst, r, steer, kEff); err != nil {
			b.Fatal(err)
		}
	}
}
