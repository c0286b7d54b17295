package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// denseHouseholder is the Householder loop this package ran before its
// callers stated their stacks' shapes: reflector k spans every row
// k..m-1 and is applied one column at a time. It is kept here as the
// reference the shaped loop must reproduce bit for bit. It reduces a copy
// of a and returns it with the reflectors (nil where none was applied).
func denseHouseholder(a *Matrix) (*Matrix, [][]complex128) {
	m, n := a.Rows, a.Cols
	r := a.Clone()
	refl := make([][]complex128, n)
	for k := 0; k < n; k++ {
		if v := make([]complex128, m-k); denseColumn(r, k, v) {
			refl[k] = v
			denseApply(r, v, k)
		}
	}
	return r, refl
}

// denseColumn builds the unit reflector of column k over rows k..m-1.
func denseColumn(r *Matrix, k int, v []complex128) bool {
	m := r.Rows
	x := make([]complex128, m-k)
	for i := k; i < m; i++ {
		x[i-k] = r.At(i, k)
	}
	alpha := Norm2(x)
	if alpha == 0 {
		return false
	}
	var beta complex128
	if x[0] == 0 {
		beta = complex(-alpha, 0)
	} else {
		beta = -(x[0] / complex(cmplx.Abs(x[0]), 0)) * complex(alpha, 0)
	}
	copy(v, x)
	v[0] -= beta
	nv := Norm2(v)
	if nv < 1e-300 {
		return false
	}
	inv := complex(1/nv, 0)
	for i := range v {
		v[i] *= inv
	}
	return true
}

// denseApply applies (I - 2 v v^H) to rows k.. of r, columns k.., one
// column at a time.
func denseApply(r *Matrix, v []complex128, k int) {
	m, n := r.Rows, r.Cols
	for j := k; j < n; j++ {
		var dot complex128
		for i := k; i < m; i++ {
			dot += cmplx.Conj(v[i-k]) * r.At(i, j)
		}
		dot *= 2
		if dot == 0 {
			continue
		}
		for i := k; i < m; i++ {
			r.Set(i, j, r.At(i, j)-dot*v[i-k])
		}
	}
}

// denseQR is QRFactor on the dense loop.
func denseQR(a *Matrix) (q, r *Matrix) {
	m, n := a.Rows, a.Cols
	red, refl := denseHouseholder(a)
	r = NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, red.At(i, j))
		}
	}
	q = NewMatrix(m, n)
	for i := 0; i < n; i++ {
		q.Set(i, i, 1)
	}
	for k := n - 1; k >= 0; k-- {
		if refl[k] != nil {
			denseApply(q, refl[k], k)
		}
	}
	return q, r
}

// denseR is RFactor on the dense loop: the factor with its rows turned
// to a real non-negative diagonal.
func denseR(a *Matrix) *Matrix {
	n := a.Cols
	red, _ := denseHouseholder(a)
	out := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		d := red.At(i, i)
		phase := complex(1, 0)
		if d != 0 {
			phase = complex(cmplx.Abs(d), 0) / d
		}
		for j := i; j < n; j++ {
			out.Set(i, j, phase*red.At(i, j))
		}
	}
	return out
}

// sameFloatBits reports whether a and b are equal bit for bit, signed
// zeros and NaN payloads included, and names the first entry that is not.
func sameFloatBits(a, b *Matrix) (bool, string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false, "shape"
	}
	for i := range a.Data {
		x, y := a.Data[i], b.Data[i]
		if math.Float64bits(real(x)) != math.Float64bits(real(y)) ||
			math.Float64bits(imag(x)) != math.Float64bits(imag(y)) {
			return false, fmt.Sprintf("(%d,%d): %v vs %v", i/a.Cols, i%a.Cols, x, y)
		}
	}
	return true, ""
}

// hardStack is the hard task's [λR; X]: an n x n factor of earlier data
// over k fresh rows.
func hardStack(rng *rand.Rand, n, k int) (rOld, x *Matrix) {
	rOld, err := RFactor(randMatrix(rng, n+k, n))
	if err != nil {
		panic(err)
	}
	return rOld, randMatrix(rng, k, n)
}

// sparsify zeroes a random leading prefix of each row and then each
// remaining entry with probability p.
func sparsify(rng *rand.Rand, a *Matrix, p float64) *Matrix {
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		clear(row[:rng.Intn(a.Cols+1)])
		for j := range row {
			if rng.Float64() < p {
				row[j] = 0
			}
		}
	}
	return a
}

// intMatrix has small Gaussian-integer entries and repeats some rows and
// columns, so sums cancel exactly, columns go zero below the diagonal and
// reflectors are skipped.
func intMatrix(rng *rand.Rand, m, n int) *Matrix {
	a := NewMatrix(m, n)
	for i := range a.Data {
		a.Data[i] = complex(float64(rng.Intn(5)-2), float64(rng.Intn(5)-2))
	}
	for t := 0; t < 2; t++ {
		src, dst := rng.Intn(m), rng.Intn(m)
		copy(a.Row(dst), a.Row(src))
		cs, cd := rng.Intn(n), rng.Intn(n)
		for i := 0; i < m; i++ {
			a.Set(i, cd, a.At(i, cs))
		}
	}
	return a
}

// damped is the constrained solve's stack [data; k·I] as the dense loop
// sees it.
func damped(data *Matrix, k complex128) *Matrix {
	return VStack(data, Identity(data.Cols).Scale(k))
}

// TestStructuredLoopIsDense requires every declared shape to reproduce
// the dense loop bit for bit: QRFactorInto's R and Q and RFactorInto's R
// on dense matrices (random, sparse, and integer ones with exact
// cancellation), UpdateRInto's R on [λR; X] and zero-padded cold-start
// stacks, and DampedQRInto's R and Q on the hard solve's [R; κI] and the
// easy solve's [train; κI], with as many training rows as columns, more,
// or fewer. The claim holds for finite input holding no -0 (see
// TestStructuredLoopKeepsNegativeZero for the one known exception).
func TestStructuredLoopIsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var w Workspace
	same := func(name, what string, got, want *Matrix) {
		t.Helper()
		if ok, at := sameFloatBits(got, want); !ok {
			t.Fatalf("%s %dx%d: %s differs from the dense loop at %s", name, want.Rows, want.Cols, what, at)
		}
	}
	check := func(name string, a *Matrix) {
		t.Helper()
		wantQ, wantR := denseQR(a)
		var got QR
		if err := QRFactorInto(&w, &got, a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		same(name, "QRFactorInto R", got.R, wantR)
		same(name, "QRFactorInto Q", got.Q, wantQ)
		var r Matrix
		if err := RFactorInto(&w, &r, a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		same(name, "RFactorInto", &r, denseR(a))
	}
	update := func(name string, rOld *Matrix, lambda float64, x *Matrix) {
		t.Helper()
		n := x.Cols
		top := 0
		if rOld != nil {
			top = n
		}
		stack := NewMatrix(max(top+x.Rows, n), n)
		for i := 0; i < top*n; i++ {
			stack.Data[i] = rOld.Data[i] * complex(lambda, 0)
		}
		copy(stack.Data[top*n:], x.Data)
		var r Matrix
		if err := UpdateRInto(&w, &r, rOld, lambda, x); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		same(name, "UpdateRInto", &r, denseR(stack))
		check(name, stack)
	}
	dampedQR := func(name string, data *Matrix, k complex128, upper bool) {
		t.Helper()
		wantQ, wantR := denseQR(damped(data, k))
		var got QR
		if err := DampedQRInto(&w, &got, data, k, upper); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		same(name, "DampedQRInto R", got.R, wantR)
		same(name, "DampedQRInto Q", got.Q, wantQ)
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(16)
		m := n + rng.Intn(3*n)
		check("dense", randMatrix(rng, m, n))
		k := rng.Intn(3 * n)
		rOld, x := hardStack(rng, n, k)
		update("[λR; X]", rOld, 0.6, x)
		kappa := complex(rng.Float64(), 0)
		dampedQR("[R; κI]", rOld, kappa, true)
		check("[R; κI] as dense", damped(rOld, kappa))
		dampedQR("[train; κI]", randMatrix(rng, m, n), kappa, false)
		dampedQR("short [train; κI]", randMatrix(rng, rng.Intn(n+1), n), kappa, false)
		update("cold start", nil, 0.6, randMatrix(rng, rng.Intn(n+1), n))
		check("sparse", sparsify(rng, randMatrix(rng, m, n), 0.5*rng.Float64()))
		sr := sparsify(rng, rOld, 0.3)
		update("sparse [λR; X]", sr, 0.6, sparsify(rng, x, 0.3))
		dampedQR("sparse [R; κI]", sr, kappa, true)
		dampedQR("sparse [train; κI]", sparsify(rng, randMatrix(rng, m, n), 0.3), kappa, false)
		ia := intMatrix(rng, m, n)
		check("integer", ia)
		check("integer sparse", sparsify(rng, ia, 0.3))
		dampedQR("integer [train; κI]", ia, 2, false)
	}
	// The Medium tasks' stacks: the hard update and solve, and the easy
	// solve over three CPIs of 28 training rows.
	rOld, x := hardStack(rng, 16, 40)
	update("Medium [λR; X]", rOld, 0.6, x)
	dampedQR("Medium [R; κI]", rOld, 0.4, true)
	dampedQR("Medium [train; κI]", randMatrix(rng, 84, 8), 0.4, false)
}

// TestStructuredLoopKeepsNegativeZero pins the one known departure from
// the dense loop: an input -0 in a row a declared shape leaves out of a
// reflector. The dense loop subtracts dot·0 from it, and when that
// product is -0 the entry becomes +0; the shaped loop never touches the
// row. A dense matrix declares every row, so QRFactorInto equals the
// dense loop even on the -0 matrix. UpdateRInto over no new rows declares
// only the pivot row: row 2 of λR stays out of reflectors 0 and 1, and
// reflector 0's column-2 product is negative real, so the dense loop
// turns the -0 at (2,2) into +0; both loops then copy that entry into R.
func TestStructuredLoopKeepsNegativeZero(t *testing.T) {
	negZero := complex(math.Copysign(0, -1), 0)
	a := FromRows([][]complex128{{1, 1, -1}, {1, 2, -1}, {0, 0, negZero}})
	wantQ, wantR := denseQR(a)
	var got QR
	if err := QRFactorInto(new(Workspace), &got, a); err != nil {
		t.Fatal(err)
	}
	if ok, at := sameFloatBits(got.R, wantR); !ok {
		t.Fatalf("dense shape: R differs from the dense loop at %s", at)
	}
	if ok, at := sameFloatBits(got.Q, wantQ); !ok {
		t.Fatalf("dense shape: Q differs from the dense loop at %s", at)
	}

	rOld := FromRows([][]complex128{{1, 1, -1}, {0, 2, -1}, {0, 0, negZero}})
	want := denseR(rOld) // λ = 1: the stack is rOld itself
	r, err := UpdateR(rOld, 1, NewMatrix(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !math.Signbit(real(r.At(2, 2))) || math.Signbit(real(want.At(2, 2))) {
		t.Fatalf("R(2,2) = %v here and %v in the dense loop, want -0 and +0", r.At(2, 2), want.At(2, 2))
	}
	r.Set(2, 2, 0)
	if ok, at := sameFloatBits(r, want); !ok {
		t.Fatalf("R differs from the dense loop beyond (2,2)'s sign, at %s", at)
	}
}

// TestDivRealIsDivision holds divReal to Go's complex division by a real
// positive divisor, bit for bit, over random, signed-zero and subnormal
// numerators and divisors.
func TestDivRealIsDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	negZero := math.Copysign(0, -1)
	parts := []float64{0, negZero, 1, -1, 5e-324, -5e-324, 2.5e-310, -3e-308, math.MaxFloat64, -math.SmallestNonzeroFloat64}
	divisors := []float64{1, 3, 5e-324, 2.5e-310, 1e-300, 1e300, math.MaxFloat64}
	for i := 0; i < 2000; i++ {
		parts = append(parts, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
		divisors = append(divisors, math.Abs(rng.NormFloat64())*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	for i, re := range parts {
		for _, im := range []float64{parts[(i*7+3)%len(parts)], 0, negZero} {
			x := complex(re, im)
			for _, a := range []float64{divisors[i%len(divisors)], divisors[(i*13+1)%len(divisors)], cmplx.Abs(x)} {
				if a == 0 || math.IsInf(a, 0) {
					continue
				}
				got, want := divReal(x, a), x/complex(a, 0)
				if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
					math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
					t.Fatalf("divReal(%v, %v) = %v, x/a = %v", x, a, got, want)
				}
			}
		}
	}
}
