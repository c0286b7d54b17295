package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
)

// QR holds a thin QR factorization A = Q·R with Q (m x n, orthonormal
// columns) and R (n x n, upper triangular), for m >= n.
type QR struct {
	Q *Matrix
	R *Matrix
}

// Workspace is the scratch memory of the factorizations in this file.
// Every slice grows to the largest problem seen and is then reused, so a
// warm workspace factorizes without allocating. The zero value is ready
// to use; a Workspace must not be shared by concurrent calls.
type Workspace struct {
	dot     []complex128 // reflect's column products
	refl    []complex128 // the reflectors, k-th at [k*m, k*m+1+hi-lo) for its span [lo, hi)
	applied []bool       // refl[k] holds a reflector
	work    Matrix       // the matrix (or built stack) reduced in place
}

// grow returns s resized to n, reusing its storage when large enough. The
// result is never nil (the wire form tells nil from empty).
func grow[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// A stack is the shape of the m x n matrix the Householder loop reduces,
// stated by the caller that built it: reflector k spans pivot row k and
// rows [max(k+1, lo), hi+k*diag). Dense is {0, m, 0}; UpdateRInto's
// [λR; X] over top rows of λR is {top, top+rows(X), 0}; DampedQRInto's
// [data; κI] over t data rows is {0, t+1, 1}, or {n, n+1, 1} for a
// triangular R (identity row j joins at reflector j). Rows left out hold
// their builder's +0: R's cleared lower triangle, the identity's cleared
// off-diagonal, a cold start's zero padding.
type stack struct{ lo, hi, diag int }

// span returns the rows [lo, hi) below pivot k that reflector k spans.
func (s stack) span(k int) (lo, hi int) {
	lo = max(k+1, s.lo)
	return lo, max(lo, s.hi+k*s.diag)
}

// QRFactor computes the thin QR factorization of a (m x n, m >= n) using
// Householder reflections. a is not modified. It is QRFactorInto with a
// fresh workspace and result.
func QRFactor(a *Matrix) (*QR, error) {
	qr := &QR{Q: new(Matrix), R: new(Matrix)}
	if err := QRFactorInto(new(Workspace), qr, a); err != nil {
		return nil, err
	}
	return qr, nil
}

// QRFactorInto computes the thin QR factorization of a (m x n, m >= n)
// into dst, reshaping dst.Q to m x n and dst.R to n x n (nil matrices are
// allocated), using w for scratch. a is not modified and must not alias
// dst's matrices.
func QRFactorInto(w *Workspace, dst *QR, a *Matrix) error {
	m, n := a.Rows, a.Cols
	if m < n {
		return fmt.Errorf("linalg: QRFactor needs rows >= cols, got %dx%d", m, n)
	}
	copy(w.work.Reshape(m, n).Data, a.Data)
	w.qr(dst, stack{0, m, 0})
	return nil
}

// DampedQRInto is QRFactorInto of the constrained solve's damped stack
// [data; k·I], built in w. data is t x n; when upper is set it is an n x n
// triangular factor whose strictly lower triangle is not read.
func DampedQRInto(w *Workspace, dst *QR, data *Matrix, k complex128, upper bool) error {
	t, n := data.Rows, data.Cols
	s := stack{0, t + 1, 1}
	if upper {
		if t != n {
			return fmt.Errorf("linalg: DampedQR triangular data %dx%d is not square", t, n)
		}
		s.lo = n
	}
	a := w.work.Reshape(t+n, n)
	clear(a.Data)
	for i := 0; i < t; i++ {
		j := min(i, s.lo) // row i of a triangular R starts at column i
		copy(a.Row(i)[j:], data.Row(i)[j:])
	}
	for j := 0; j < n; j++ {
		a.Data[(t+j)*n+j] = k // the entries of Identity(n).Scale(k), bit for bit
	}
	w.qr(dst, s)
	return nil
}

// qr factorizes w.work, shaped s, into dst.
func (w *Workspace) qr(dst *QR, s stack) {
	r := &w.work
	m, n := r.Rows, r.Cols
	w.householder(r, s)
	if dst.Q == nil {
		dst.Q = new(Matrix)
	}
	if dst.R == nil {
		dst.R = new(Matrix)
	}
	rOut := dst.R.Reshape(n, n) // the top n x n block's upper triangle
	for i := 0; i < n; i++ {
		clear(rOut.Row(i)[:i])
		copy(rOut.Row(i)[i:], r.Row(i)[i:n])
	}
	// Q is each reflector, on its span, applied to I's first n columns (q
	// holds no -0 for the dense loop to turn into +0 outside a span).
	q := dst.Q.Reshape(m, n)
	clear(q.Data)
	for i := 0; i < n; i++ {
		q.Data[i*n+i] = 1
	}
	for k := n - 1; k >= 0; k-- {
		if w.applied[k] {
			lo, hi := s.span(k)
			w.reflect(q, w.refl[k*m:k*m+1+hi-lo], k, lo)
		}
	}
}

// RFactor computes only the triangular factor R of the thin QR of a,
// in O(mn^2) without accumulating Q. a is not modified. The returned R has
// a real non-negative diagonal, making it unique and therefore directly
// comparable across incremental updates. It is RFactorInto with a fresh
// workspace and result.
func RFactor(a *Matrix) (*Matrix, error) {
	out := new(Matrix)
	if err := RFactorInto(new(Workspace), out, a); err != nil {
		return nil, err
	}
	return out, nil
}

// RFactorInto is RFactor writing the n x n factor into dst (reshaped),
// using w for scratch. a is not modified; dst may alias a.
func RFactorInto(w *Workspace, dst, a *Matrix) error {
	m, n := a.Rows, a.Cols
	if m < n {
		return fmt.Errorf("linalg: RFactor needs rows >= cols, got %dx%d", m, n)
	}
	copy(w.work.Reshape(m, n).Data, a.Data)
	w.reduceR(dst, &w.work, stack{0, m, 0})
	return nil
}

// reduceR triangularizes r (m x n, m >= n), shaped s, in place and writes
// its normalized n x n factor into dst.
func (w *Workspace) reduceR(dst, r *Matrix, s stack) {
	n := r.Cols
	w.householder(r, s)
	out := dst.Reshape(n, n)
	for i := 0; i < n; i++ {
		// Householder with our beta convention leaves diag real negative or
		// positive; normalize rows so diag >= 0 for uniqueness.
		row, src, d := out.Row(i), r.Row(i)[:n], r.At(i, i)
		phase := complex(1, 0)
		if d != 0 {
			phase = complex(cmplx.Abs(d), 0) / d
		}
		clear(row[:i])
		for j := i; j < n; j++ {
			row[j] = phase * src[j]
		}
	}
}

// householder is the one Householder loop: it triangularizes r (m x n,
// m >= n), shaped s, in place, keeping reflector k in w.refl and whether
// it was applied in w.applied[k]. A row s leaves out of reflector k is
// untouched, its column-k entry its builder's +0, so each skipped term is
// an exact-zero product added to a sum that starts at +0, is never -0 and
// keeps its bits; the span gets the dense loop's operations in its order.
// R and Q are the dense loop's bit for bit for finite input, but for a -0
// input in a row left out, which the dense loop may make +0.
func (w *Workspace) householder(r *Matrix, s stack) {
	m, n := r.Rows, r.Cols
	w.refl = grow(w.refl, n*m)
	w.applied = grow(w.applied, n)
	for k := 0; k < n; k++ {
		lo, hi := s.span(k)
		v := w.refl[k*m : k*m+1+hi-lo]
		w.applied[k] = householderColumn(r, k, lo, v)
		if w.applied[k] {
			w.reflect(r, v, k, lo)
		}
	}
}

// householderColumn builds in v the unit Householder vector annihilating
// column k of r below the pivot (v[0] for row k, v[1+t] for row lo+t), or
// returns false, v unspecified, if the column is already zero there.
func householderColumn(r *Matrix, k, lo int, v []complex128) bool {
	n := r.Cols
	v[0] = r.Data[k*n+k]
	for t, i := 1, lo*n+k; t < len(v); t, i = t+1, i+n {
		v[t] = r.Data[i]
	}
	alpha := Norm2(v)
	if alpha == 0 {
		return false
	}
	// beta = -sign(x0)*|x|, with complex sign = x0/|x0|.
	beta := complex(-alpha, 0)
	if x0 := v[0]; x0 != 0 {
		beta = -divReal(x0, cmplx.Abs(x0)) * complex(alpha, 0)
	}
	v[0] -= beta
	return !(Normalize(v) < 1e-300) // a NaN norm still applies
}

// divReal is x / complex(a, 0) for a real a > 0: the runtime's Smith
// branch with ratio 0/a = +0 and denominator a + 0*0 = a, whose zero
// products keep the signs of zero, so finite x give the same bits.
func divReal(x complex128, a float64) complex128 {
	re, im := real(x), imag(x)
	return complex((re+im*0)/a, (im-re*0)/a)
}

// reflect, the only place a reflector is applied, applies (I - 2 v v^H)
// to columns k.. of pivot row k (v[0]) and rows lo+t (v[1+t]). It forms
// every column's product, then updates, four rows at a time. Each product
// is still summed in row order, no update feeds a later product, and a
// column whose product is 0 is skipped, so this is the column-at-a-time
// loop's arithmetic, bit for bit.
func (w *Workspace) reflect(a *Matrix, v []complex128, k, lo int) {
	n := a.Cols
	w.dot = grow(w.dot, n)
	dot := w.dot[k:n]
	piv, span := a.Data[k*n+k:][:len(dot)], a.Data[lo*n:] // v[1+i]'s row at span[i*n:]
	c := cmplx.Conj(v[0])
	for j, x := range piv {
		dot[j] = c * x // +0 + c·x but for a zero's sign; a zero column is skipped
	}
	t := 1
	for ; t+3 < len(v); t += 4 {
		c0, c1, c2, c3 := cmplx.Conj(v[t]), cmplx.Conj(v[t+1]), cmplx.Conj(v[t+2]), cmplx.Conj(v[t+3])
		o := (t-1)*n + k
		r0, r1 := span[o:][:len(dot)], span[o+n:][:len(dot)]
		r2, r3 := span[o+2*n:][:len(dot)], span[o+3*n:][:len(dot)]
		for j := range dot {
			dot[j] = dot[j] + c0*r0[j] + c1*r1[j] + c2*r2[j] + c3*r3[j]
		}
	}
	for ; t < len(v); t++ {
		c, r := cmplx.Conj(v[t]), span[(t-1)*n+k:][:len(dot)]
		for j := range dot {
			dot[j] += c * r[j]
		}
	}
	for j := range dot {
		dot[j] *= 2
	}
	for j, d := range dot {
		if d != 0 {
			piv[j] -= d * v[0]
		}
	}
	for t = 1; t+3 < len(v); t += 4 {
		v0, v1, v2, v3 := v[t], v[t+1], v[t+2], v[t+3]
		o := (t-1)*n + k
		r0, r1 := span[o:][:len(dot)], span[o+n:][:len(dot)]
		r2, r3 := span[o+2*n:][:len(dot)], span[o+3*n:][:len(dot)]
		for j, d := range dot {
			if d != 0 {
				r0[j] -= d * v0
				r1[j] -= d * v1
				r2[j] -= d * v2
				r3[j] -= d * v3
			}
		}
	}
	for ; t < len(v); t++ {
		vt, r := v[t], span[(t-1)*n+k:][:len(dot)]
		for j, d := range dot {
			if d != 0 {
				r[j] -= d * vt
			}
		}
	}
}

// BackSubstitute solves R x = b for upper-triangular R (n x n). It is
// BackSubstituteInto with a fresh solution vector.
func BackSubstitute(r *Matrix, b []complex128) ([]complex128, error) {
	x := make([]complex128, len(b))
	if err := BackSubstituteInto(x, r, b); err != nil {
		return nil, err
	}
	return x, nil
}

// BackSubstituteInto solves R x = b for upper-triangular R (n x n) into
// x (length n), which must not alias b.
func BackSubstituteInto(x []complex128, r *Matrix, b []complex128) error {
	n := r.Rows
	if r.Cols != n || len(b) != n || len(x) != n {
		return fmt.Errorf("linalg: BackSubstitute dims R %dx%d b %d x %d", r.Rows, r.Cols, len(b), len(x))
	}
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		row := r.Row(i)
		for j := i + 1; j < n; j++ {
			sum -= row[j] * x[j]
		}
		d := row[i]
		if cmplx.Abs(d) < 1e-300 {
			return fmt.Errorf("linalg: singular R at %d", i)
		}
		x[i] = sum / d
	}
	return nil
}

// ForwardSubstitute solves L x = b for lower-triangular L (n x n).
func ForwardSubstitute(l *Matrix, b []complex128) ([]complex128, error) {
	n := l.Rows
	if l.Cols != n || len(b) != n {
		return nil, fmt.Errorf("linalg: ForwardSubstitute dims L %dx%d b %d", l.Rows, l.Cols, len(b))
	}
	x := make([]complex128, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		row := l.Row(i)
		for j := 0; j < i; j++ {
			sum -= row[j] * x[j]
		}
		d := row[i]
		if cmplx.Abs(d) < 1e-300 {
			return nil, fmt.Errorf("linalg: singular L at %d", i)
		}
		x[i] = sum / d
	}
	return x, nil
}

// LeastSquares solves min_x ||A x - b||_2 via QR. A must have rows >= cols
// and full column rank.
func LeastSquares(a *Matrix, b []complex128) ([]complex128, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("linalg: LeastSquares rhs length %d, want %d", len(b), a.Rows)
	}
	qr, err := QRFactor(a)
	if err != nil {
		return nil, err
	}
	qhb := make([]complex128, a.Cols) // x = R^{-1} Q^H b, summed down Q's rows
	for i, bi := range b {
		for j, q := range qr.Q.Row(i) {
			qhb[j] += cmplx.Conj(q) * bi
		}
	}
	return BackSubstitute(qr.R, qhb)
}

// UpdateR performs the recursive QR update at the heart of the hard weight
// computation: given the previous triangular factor rOld (n x n) scaled by
// the forgetting factor lambda, and a block of new rows (k x n), it returns
// the triangular factor of the stacked matrix [lambda*rOld; newRows]. This
// is algebraically the "block update form of the QR decomposition" the
// paper uses to incorporate exponentially forgotten past looks. rOld may be
// nil, meaning no prior state (cold start). It is UpdateRInto with a fresh
// workspace and result.
func UpdateR(rOld *Matrix, lambda float64, newRows *Matrix) (*Matrix, error) {
	out := new(Matrix)
	if err := UpdateRInto(new(Workspace), out, rOld, lambda, newRows); err != nil {
		return nil, err
	}
	return out, nil
}

// UpdateRInto is UpdateR writing the n x n factor into dst (reshaped),
// stacking [lambda*rOld; newRows] in w instead of allocating it. rOld's
// strictly lower triangle is not read. dst may alias rOld: the stack is
// built before dst is written.
func UpdateRInto(w *Workspace, dst, rOld *Matrix, lambda float64, newRows *Matrix) error {
	n := newRows.Cols
	top := 0
	if rOld != nil {
		if rOld.Rows != n || rOld.Cols != n {
			return fmt.Errorf("linalg: UpdateR rOld %dx%d, want %dx%d", rOld.Rows, rOld.Cols, n, n)
		}
		top = n
	}
	// Pad with zero rows so the factorization is defined even for a cold
	// start with fewer samples than channels.
	end := top + newRows.Rows
	stacked := w.work.Reshape(max(end, n), n)
	s := complex(lambda, 0)
	for i := 0; i < top; i++ {
		row, src := stacked.Row(i), rOld.Row(i)
		clear(row[:i])
		for j := i; j < n; j++ {
			row[j] = src[j] * s
		}
	}
	copy(stacked.Data[top*n:], newRows.Data)
	clear(stacked.Data[end*n:])
	w.reduceR(dst, stacked, stack{top, end, 0})
	return nil
}

// FlopsQR returns the flop-count convention for a complex Householder QR of
// an m x n (m >= n) matrix without forming Q: 8*n^2*(m - n/3). The real
// count is 4x the classic real-QR 2n^2(m-n/3) because complex multiplies
// cost 6 flops and adds 2. It counts a dense matrix: on a stack whose shape
// leaves rows out ([λR; X], [R; κI]) the loop here executes less, about
// half at the hard task's Medium stacks.
func FlopsQR(m, n int) int64 {
	if m < n {
		m = n
	}
	return int64(8 * float64(n) * float64(n) * (float64(m) - float64(n)/3))
}

// FlopsBackSub returns the flop convention for a complex triangular solve
// of size n: 4*n^2.
func FlopsBackSub(n int) int64 { return 4 * int64(n) * int64(n) }

// CondLowerBound returns a cheap lower bound on the condition number of an
// upper-triangular R: max|diag| / min|diag|. Useful for sanity checks on
// training matrices.
func CondLowerBound(r *Matrix) float64 {
	n := r.Rows
	if n == 0 {
		return 0
	}
	lo, hi := math.Inf(1), 0.0
	for i := 0; i < n; i++ {
		d := cmplx.Abs(r.At(i, i))
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if lo == 0 {
		return math.Inf(1)
	}
	return hi / lo
}
