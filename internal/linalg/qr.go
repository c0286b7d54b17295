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

// Workspace is the scratch memory of the factorizations in this file: each
// row's profile, the support of the reflector at hand, its column
// products, the reflector store QR accumulates Q from, and the working
// copy of the matrix being reduced (for UpdateRInto, the stacked
// [λ·R; rows]). Every slice grows to the largest problem seen and is then
// reused, so a warm workspace factorizes without allocating. The zero
// value is ready to use; a Workspace must not be shared by concurrent
// calls.
type Workspace struct {
	prof    []int        // row i's first nonzero column in the input
	rows    []int        // the support of the reflector at hand
	dot     []complex128 // reflect's column products
	refl    []complex128 // the reflectors, k-th at [k*m, k*m+len(support k))
	applied []bool       // refl[k] holds a reflector
	work    Matrix       // the matrix being reduced in place
}

// grow returns s resized to n, reusing its storage when large enough. The
// result is never nil (the wire form tells nil from empty).
func grow[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
	r := w.work.Reshape(m, n)
	copy(r.Data, a.Data)
	w.householder(r)
	if dst.Q == nil {
		dst.Q = new(Matrix)
	}
	if dst.R == nil {
		dst.R = new(Matrix)
	}
	// Zero out strictly-lower part and keep the top n x n block as R.
	rOut := dst.R.Reshape(n, n)
	clear(rOut.Data)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			rOut.Set(i, j, r.At(i, j))
		}
	}
	// Accumulate Q by applying the reflectors, each on the support it was
	// built over, to the first n columns of I. Reflector k's entry for a
	// row outside its support is zero, so the dense product would leave
	// that row of q as it is (q never holds a -0 for it to turn into +0).
	q := dst.Q.Reshape(m, n)
	clear(q.Data)
	for i := 0; i < n; i++ {
		q.Set(i, i, 1)
	}
	for k := n - 1; k >= 0; k-- {
		if w.applied[k] {
			rows := w.support(k)
			w.reflect(q, w.refl[k*m:k*m+len(rows)], rows, k)
		}
	}
	return nil
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
	r := w.work.Reshape(m, n)
	copy(r.Data, a.Data)
	w.reduceR(dst, r)
	return nil
}

// reduceR triangularizes r (m x n, m >= n) in place and writes its
// normalized n x n factor into dst.
func (w *Workspace) reduceR(dst, r *Matrix) {
	n := r.Cols
	w.householder(r)
	out := dst.Reshape(n, n)
	clear(out.Data)
	for i := 0; i < n; i++ {
		// Householder with our beta convention leaves diag real negative or
		// positive; normalize rows so diag >= 0 for uniqueness.
		d := r.At(i, i)
		phase := complex(1, 0)
		if d != 0 {
			phase = complex(cmplx.Abs(d), 0) / d
		}
		for j := i; j < n; j++ {
			out.Set(i, j, phase*r.At(i, j))
		}
	}
}

// householder is the one Householder loop: it triangularizes r (m x n,
// m >= n) in place, keeping reflector k in w.refl and whether it was
// applied in w.applied[k].
//
// Reflector k is built over, and applied to, its support only: pivot row k
// and the rows below it whose profile — first nonzero column of the input —
// is at most k. For [λR; X] that is row k and the new rows; for a damped
// stack [R; κI] it is row k and identity rows 0..k; for a dense matrix it is
// rows k..m-1. A row outside the support has not been touched by any
// earlier reflector (a row joins the support at its profile and stays), so
// its column-k entry is still an input zero and its entry of the dense
// loop's reflector is a signed zero. Every skipped term is then a product
// with an exact zero added to a sum that starts at +0 and so is never -0,
// which leaves the sum's bits as they are; on the support the loop does the
// dense loop's operations in the dense loop's order. R and Q are therefore
// bit-identical to the dense loop's for finite input, with one exception:
// a -0 entry in a row outside the support, which the dense loop may turn
// into +0 and this loop leaves alone.
func (w *Workspace) householder(r *Matrix) {
	m, n := r.Rows, r.Cols
	w.profile(r)
	w.refl = grow(w.refl, n*m)
	w.applied = grow(w.applied, n)
	for k := 0; k < n; k++ {
		rows := w.support(k)
		v := w.refl[k*m : k*m+len(rows)]
		w.applied[k] = householderColumn(r, k, rows, v)
		if w.applied[k] {
			w.reflect(r, v, rows, k)
		}
	}
}

// profile records each row's first nonzero column (r.Cols for a zero
// row) in w.prof.
func (w *Workspace) profile(r *Matrix) {
	w.prof = grow(w.prof, r.Rows)
	for i := range w.prof {
		row := r.Row(i)
		p := 0
		for p < len(row) && row[p] == 0 {
			p++
		}
		w.prof[i] = p
	}
}

// support returns reflector k's rows in ascending order: k, then every row
// below it whose profile is at most k.
func (w *Workspace) support(k int) []int {
	rows := grow(w.rows, len(w.prof))[:1]
	rows[0] = k
	for i := k + 1; i < len(w.prof); i++ {
		if w.prof[i] <= k {
			rows = append(rows, i)
		}
	}
	w.rows = rows
	return rows
}

// householderColumn builds in v (one entry per support row) the unit
// Householder vector that annihilates column k of r on the rows below the
// pivot. Returns false, leaving v unspecified, if the column is already
// zero there.
func householderColumn(r *Matrix, k int, rows []int, v []complex128) bool {
	for t, i := range rows {
		v[t] = r.At(i, k)
	}
	alpha := Norm2(v)
	if alpha == 0 {
		return false
	}
	// beta = -sign(x0)*|x|, with complex sign = x0/|x0|.
	var beta complex128
	if x0 := v[0]; x0 == 0 {
		beta = complex(-alpha, 0)
	} else {
		beta = -(x0 / complex(cmplx.Abs(x0), 0)) * complex(alpha, 0)
	}
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

// reflect applies (I - 2 v v^H) to the given rows of a, columns k.., where
// v is the unit Householder vector of pivot k with one entry per row. It
// is the only place a reflector is applied. It forms every column's
// product first and then updates, two rows at a time for locality. Each
// column's product is still summed in row order, and updating column j
// never feeds column j+1's product, so this is the column-at-a-time
// loop's arithmetic, bit for bit.
func (w *Workspace) reflect(a *Matrix, v []complex128, rows []int, k int) {
	n := a.Cols
	w.dot = grow(w.dot, n)
	dot := w.dot[k:n]
	clear(dot)
	t := 0
	for ; t+1 < len(rows); t += 2 {
		c0, c1 := cmplx.Conj(v[t]), cmplx.Conj(v[t+1])
		r0 := a.Row(rows[t])[k:n][:len(dot)]
		r1 := a.Row(rows[t+1])[k:n][:len(dot)]
		for j := range dot {
			dot[j] = dot[j] + c0*r0[j] + c1*r1[j]
		}
	}
	if t < len(rows) {
		c := cmplx.Conj(v[t])
		r := a.Row(rows[t])[k:n][:len(dot)]
		for j := range dot {
			dot[j] += c * r[j]
		}
	}
	for j := range dot {
		dot[j] *= 2
	}
	for t = 0; t+1 < len(rows); t += 2 {
		v0, v1 := v[t], v[t+1]
		r0 := a.Row(rows[t])[k:n][:len(dot)]
		r1 := a.Row(rows[t+1])[k:n][:len(dot)]
		for j, d := range dot {
			if d != 0 {
				r0[j] -= d * v0
				r1[j] -= d * v1
			}
		}
	}
	if t < len(rows) {
		vt := v[t]
		r := a.Row(rows[t])[k:n][:len(dot)]
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
	// x = R^{-1} Q^H b
	qhb := make([]complex128, a.Cols)
	for j := 0; j < a.Cols; j++ {
		var sum complex128
		for i := 0; i < a.Rows; i++ {
			sum += cmplx.Conj(qr.Q.At(i, j)) * b[i]
		}
		qhb[j] = sum
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
// stacking [lambda*rOld; newRows] in w instead of allocating it. dst may
// alias rOld: the stack is built before dst is written.
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
	stacked := w.work.Reshape(max(top+newRows.Rows, n), n)
	s := complex(lambda, 0)
	for i := 0; i < top*n; i++ {
		stacked.Data[i] = rOld.Data[i] * s
	}
	copy(stacked.Data[top*n:], newRows.Data)
	clear(stacked.Data[(top+newRows.Rows)*n:])
	w.reduceR(dst, stacked)
	return nil
}

// FlopsQR returns the flop-count convention for a complex Householder QR of
// an m x n (m >= n) matrix without forming Q: 8*n^2*(m - n/3). The real
// count is 4x the classic real-QR 2n^2(m-n/3) because complex multiplies
// cost 6 flops and adds 2. It counts a dense matrix: the Householder loop
// here reflects only each reflector's support, so on a stack with known
// zeros ([λR; X], [R; κI]) it executes less. At the hard task's Medium
// stacks the executed arithmetic is about half what the dense loop did.
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
