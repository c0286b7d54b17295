package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func randVector(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{{4, 4}, {8, 3}, {20, 16}, {50, 16}, {100, 32}} {
		a := randMatrix(rng, dims[0], dims[1])
		qr, err := QRFactor(a)
		if err != nil {
			t.Fatal(err)
		}
		recon := Mul(qr.Q, qr.R)
		if !recon.Equalish(a, 1e-10*float64(dims[0])) {
			t.Errorf("dims %v: QR != A (frob diff %g)", dims, frobDiff(recon, a))
		}
	}
}

func frobDiff(a, b *Matrix) float64 {
	d := a.Clone()
	for i := range d.Data {
		d.Data[i] -= b.Data[i]
	}
	return FrobNorm(d)
}

func TestQROrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 40, 16)
	qr, err := QRFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	qhq := Mul(qr.Q.H(), qr.Q)
	if !qhq.Equalish(Identity(16), 1e-10) {
		t.Errorf("Q^H Q != I (frob diff %g)", frobDiff(qhq, Identity(16)))
	}
}

func TestQRUpperTriangular(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMatrix(rng, 30, 10)
	qr, err := QRFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		for j := 0; j < i; j++ {
			if cmplx.Abs(qr.R.At(i, j)) > 1e-12 {
				t.Fatalf("R(%d,%d) = %v, want 0", i, j, qr.R.At(i, j))
			}
		}
	}
}

func TestQRRejectsWide(t *testing.T) {
	if _, err := QRFactor(NewMatrix(3, 5)); err == nil {
		t.Error("QRFactor on wide matrix should fail")
	}
	if _, err := RFactor(NewMatrix(3, 5)); err == nil {
		t.Error("RFactor on wide matrix should fail")
	}
}

func TestRFactorMatchesQRMagnitudes(t *testing.T) {
	// RFactor normalizes to a non-negative real diagonal; |R| entries and
	// R^H R must match the QR-produced factor's.
	rng := rand.New(rand.NewSource(4))
	a := randMatrix(rng, 25, 8)
	qr, err := QRFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	g1 := Mul(qr.R.H(), qr.R)
	g2 := Mul(r2.H(), r2)
	if !g1.Equalish(g2, 1e-9) {
		t.Errorf("R^H R mismatch: %g", frobDiff(g1, g2))
	}
	for i := 0; i < 8; i++ {
		d := r2.At(i, i)
		if imag(d) > 1e-12 || real(d) < 0 {
			t.Errorf("RFactor diag %d = %v, want real >= 0", i, d)
		}
	}
}

func TestBackSubstitute(t *testing.T) {
	r := FromRows([][]complex128{
		{2, 1, complex(0, 1)},
		{0, complex(3, 1), 2},
		{0, 0, 4},
	})
	want := []complex128{complex(1, -1), 2, complex(0, 3)}
	b := MulVec(r, want)
	got, err := BackSubstitute(r, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBackSubstituteSingular(t *testing.T) {
	r := NewMatrix(2, 2)
	r.Set(0, 0, 1)
	if _, err := BackSubstitute(r, []complex128{1, 1}); err == nil {
		t.Error("singular R should error")
	}
}

func TestForwardSubstitute(t *testing.T) {
	l := FromRows([][]complex128{
		{2, 0, 0},
		{1, complex(3, 1), 0},
		{complex(0, 1), 2, 4},
	})
	want := []complex128{1, complex(2, 1), -1}
	b := MulVec(l, want)
	got, err := ForwardSubstitute(l, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Square nonsingular system: least squares must equal the exact solution.
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(rng, 6, 6)
	want := randVector(rng, 6)
	b := MulVec(a, want)
	got, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLeastSquaresResidualOrthogonal(t *testing.T) {
	// The LS residual must be orthogonal to the column space of A.
	rng := rand.New(rand.NewSource(6))
	a := randMatrix(rng, 30, 7)
	b := randVector(rng, 30)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax := MulVec(a, x)
	res := make([]complex128, len(b))
	for i := range b {
		res[i] = b[i] - ax[i]
	}
	ahr := MulVec(a.H(), res)
	if n := Norm2(ahr); n > 1e-9 {
		t.Errorf("A^H r = %g, want ~0", n)
	}
}

func TestLeastSquaresPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 10 + rng.Intn(20)
		cols := 2 + rng.Intn(6)
		a := randMatrix(rng, rows, cols)
		b := randVector(rng, rows)
		x, err := LeastSquares(a, b)
		if err != nil {
			return false
		}
		// Perturbing x in any coordinate direction must not reduce the
		// residual norm (local optimality).
		base := residNorm(a, x, b)
		for j := 0; j < cols; j++ {
			for _, d := range []complex128{1e-4, complex(0, 1e-4)} {
				xp := append([]complex128(nil), x...)
				xp[j] += d
				if residNorm(a, xp, b) < base-1e-10 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func residNorm(a *Matrix, x, b []complex128) float64 {
	ax := MulVec(a, x)
	r := make([]complex128, len(b))
	for i := range b {
		r[i] = b[i] - ax[i]
	}
	return Norm2(r)
}

func TestUpdateRMatchesBatch(t *testing.T) {
	// Recursive update with lambda=1 must equal the batch factorization of
	// all rows stacked (up to the unique nonneg-diagonal normalization).
	rng := rand.New(rand.NewSource(7))
	n := 8
	blocks := []*Matrix{
		randMatrix(rng, 12, n),
		randMatrix(rng, 9, n),
		randMatrix(rng, 15, n),
	}
	var r *Matrix
	var err error
	for _, blk := range blocks {
		r, err = UpdateR(r, 1.0, blk)
		if err != nil {
			t.Fatal(err)
		}
	}
	batch, err := RFactor(VStack(blocks...))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equalish(batch, 1e-9) {
		t.Errorf("recursive R != batch R (frob diff %g)", frobDiff(r, batch))
	}
}

func TestUpdateRForgetting(t *testing.T) {
	// With lambda<1, old information must be attenuated: the Gram matrix of
	// the updated R equals lambda^2 * old Gram + new Gram.
	rng := rand.New(rand.NewSource(8))
	n := 6
	lambda := 0.6
	oldRows := randMatrix(rng, 20, n)
	newRows := randMatrix(rng, 10, n)
	r0, err := RFactor(oldRows)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := UpdateR(r0, lambda, newRows)
	if err != nil {
		t.Fatal(err)
	}
	gramGot := Mul(r1.H(), r1)
	gramWant := Mul(r0.H(), r0).Scale(complex(lambda*lambda, 0))
	gNew := Mul(newRows.H(), newRows)
	for i := range gramWant.Data {
		gramWant.Data[i] += gNew.Data[i]
	}
	if !gramGot.Equalish(gramWant, 1e-8) {
		t.Errorf("forgetting Gram mismatch %g", frobDiff(gramGot, gramWant))
	}
}

func TestUpdateRColdStart(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 8
	// Fewer samples than columns: must pad and still produce an n x n R.
	blk := randMatrix(rng, 3, n)
	r, err := UpdateR(nil, 0.6, blk)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows != n || r.Cols != n {
		t.Fatalf("R dims %dx%d", r.Rows, r.Cols)
	}
}

func TestUpdateRBadDims(t *testing.T) {
	if _, err := UpdateR(NewMatrix(3, 4), 1, NewMatrix(2, 5)); err == nil {
		t.Error("mismatched R dims should error")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]complex128{{1, complex(0, 1)}, {2, 0}})
	b := FromRows([][]complex128{{1, 1}, {complex(0, 1), 0}})
	got := Mul(a, b)
	want := FromRows([][]complex128{{0, 1}, {2, 2}})
	if !got.Equalish(want, 1e-14) {
		t.Errorf("got %v", got.Data)
	}
}

func TestMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randMatrix(rng, 5, 7)
	b := randMatrix(rng, 7, 4)
	c := randMatrix(rng, 4, 6)
	left := Mul(Mul(a, b), c)
	right := Mul(a, Mul(b, c))
	if !left.Equalish(right, 1e-10) {
		t.Error("(AB)C != A(BC)")
	}
}

func TestMulDimsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	Mul(NewMatrix(2, 3), NewMatrix(4, 2))
}

func TestHermitianTranspose(t *testing.T) {
	a := FromRows([][]complex128{{complex(1, 2), complex(3, -1)}})
	h := a.H()
	if h.Rows != 2 || h.Cols != 1 {
		t.Fatalf("dims %dx%d", h.Rows, h.Cols)
	}
	if h.At(0, 0) != complex(1, -2) || h.At(1, 0) != complex(3, 1) {
		t.Errorf("H() wrong: %v", h.Data)
	}
	tr := a.T()
	if tr.At(0, 0) != complex(1, 2) || tr.At(1, 0) != complex(3, -1) {
		t.Errorf("T() wrong: %v", tr.Data)
	}
}

func TestVStack(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}})
	b := FromRows([][]complex128{{3, 4}, {5, 6}})
	s := VStack(a, b)
	if s.Rows != 3 || s.Cols != 2 {
		t.Fatalf("dims %dx%d", s.Rows, s.Cols)
	}
	if s.At(2, 1) != 6 || s.At(0, 0) != 1 {
		t.Errorf("content wrong: %v", s.Data)
	}
	if VStack().Rows != 0 {
		t.Error("empty stack should be 0x0")
	}
}

func TestVStackMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("col mismatch should panic")
		}
	}()
	VStack(NewMatrix(1, 2), NewMatrix(1, 3))
}

func TestIdentityAndScale(t *testing.T) {
	id := Identity(3).Scale(complex(2, 0))
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := complex128(0)
			if i == j {
				want = 2
			}
			if id.At(i, j) != want {
				t.Errorf("(%d,%d) = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestDotAndNorms(t *testing.T) {
	a := []complex128{complex(1, 1), complex(0, 2)}
	b := []complex128{complex(2, 0), complex(0, 1)}
	// conj(a)·b = (1-i)(2) + (-2i)(i) = 2-2i + 2 = 4-2i
	if got := Dot(a, b); cmplx.Abs(got-complex(4, -2)) > 1e-14 {
		t.Errorf("Dot = %v", got)
	}
	if math.Abs(Norm2(a)-math.Sqrt(6)) > 1e-14 {
		t.Errorf("Norm2 = %g", Norm2(a))
	}
	v := []complex128{complex(3, 0), complex(0, 4)}
	n := Normalize(v)
	if math.Abs(n-5) > 1e-14 || math.Abs(Norm2(v)-1) > 1e-14 {
		t.Errorf("Normalize: returned %g, new norm %g", n, Norm2(v))
	}
	z := []complex128{0, 0}
	if Normalize(z) != 0 {
		t.Error("zero vector normalize should return 0")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged rows should panic")
		}
	}()
	FromRows([][]complex128{{1, 2}, {3}})
}

func TestCondLowerBound(t *testing.T) {
	r := FromRows([][]complex128{{4, 1}, {0, 2}})
	if got := CondLowerBound(r); math.Abs(got-2) > 1e-14 {
		t.Errorf("cond = %g, want 2", got)
	}
	rs := FromRows([][]complex128{{1, 0}, {0, 0}})
	if !math.IsInf(CondLowerBound(rs), 1) {
		t.Error("singular diag should give +Inf")
	}
	if CondLowerBound(NewMatrix(0, 0)) != 0 {
		t.Error("empty should give 0")
	}
}

func TestFlopsConventions(t *testing.T) {
	if FlopsMatMul(6, 16, 512) != 393216 {
		t.Errorf("FlopsMatMul = %d", FlopsMatMul(6, 16, 512))
	}
	if FlopsQR(30, 30) <= 0 || FlopsQR(10, 30) != FlopsQR(30, 30) {
		t.Error("FlopsQR should clamp m to n")
	}
	if FlopsBackSub(16) != 1024 {
		t.Errorf("FlopsBackSub(16) = %d", FlopsBackSub(16))
	}
}

func TestMulIntoNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randMatrix(rng, 6, 16)
	b := randMatrix(rng, 16, 32)
	dst := NewMatrix(6, 32)
	allocs := testing.AllocsPerRun(10, func() { MulInto(dst, a, b) })
	if allocs > 0 {
		t.Errorf("MulInto allocates %g times per run", allocs)
	}
	if !dst.Equalish(Mul(a, b), 1e-12) {
		t.Error("MulInto result differs from Mul")
	}
}

func BenchmarkQR50x16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, 50, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := QRFactor(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRFactor80x32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, 80, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RFactor(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMul6x16x512(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := randMatrix(rng, 6, 16)
	x := randMatrix(rng, 16, 512)
	dst := NewMatrix(6, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulInto(dst, w, x)
	}
}

// BenchmarkUpdateRMedium is the hard task's recursive update at Medium
// size: a 56 x 16 stack of λR over 40 new rows, on a warm workspace.
func BenchmarkUpdateRMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r, err := RFactor(randMatrix(rng, 40, 16))
	if err != nil {
		b.Fatal(err)
	}
	blk := randMatrix(rng, 40, 16)
	var w Workspace
	var dst Matrix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := UpdateRInto(&w, &dst, r, 0.6, blk); err != nil {
			b.Fatal(err)
		}
	}
}
