package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"pstap/internal/cube"
	"pstap/internal/linalg"
	"pstap/internal/stap"
)

// The flat form. Every integer is a little-endian int64, every float the
// little-endian bits of math.Float64bits (complex128 = real, imag), so
// NaN payloads, −0 and ±Inf survive bit for bit. A slice is an int64
// count — −1 for nil, so nil and empty stay distinct — followed by its
// elements; a pointer is a presence byte (0 nil, 1 present) followed by
// the value. The four payload types:
//
//	*cube.Cube      presence, Axes [3]int64, Dim [3]int64, Data count, Data × (re, im)
//	*cube.RealCube  presence, Axes [3]int64, Dim [3]int64, Data count, Data × value
//	*linalg.Matrix  presence, Rows, Cols, Data count, Data × (re, im)
//	[]stap.Detection count, each Range, DopplerBin, Beam, Power, Threshold
//
// Data carries its own count rather than being implied by Dim: a value
// whose Dim and Data disagree crosses the wire as it is, for the
// receiver's shape check (cube.CheckShape) to refuse with a message.

// Flattener is a value with a flat form of its own, built from the Enc
// primitives; WriteFrame writes it as a frame.
type Flattener interface {
	AppendFlat(e *Enc) error
}

// FlatDecoder is a pointer a frame decodes into through the Dec
// primitives. It must set every field: the target may be reused.
type FlatDecoder interface {
	DecodeFlat(d *Dec) error
}

// detectionBytes is one stap.Detection's flat size.
const detectionBytes = 5 * 8

// Enc appends values in the flat form to a byte slice.
type Enc struct{ b []byte }

// Bytes returns everything appended so far.
func (e *Enc) Bytes() []byte { return e.b }

// grow extends the slice by n bytes and returns them for writing.
func (e *Enc) grow(n int) []byte {
	off := len(e.b)
	e.b = slices.Grow(e.b, n)[:off+n]
	return e.b[off:]
}

// Byte appends one byte.
func (e *Enc) Byte(v byte) { e.b = append(e.b, v) }

// Bool appends v as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Uint64 appends v.
func (e *Enc) Uint64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// Int64 appends v.
func (e *Enc) Int64(v int64) { e.Uint64(uint64(v)) }

// Int appends v as an int64.
func (e *Enc) Int(v int) { e.Uint64(uint64(int64(v))) }

// Text appends a count and the bytes of s.
func (e *Enc) Text(s string) {
	e.Int(len(s))
	e.b = append(e.b, s...)
}

// count appends a slice count, −1 for nil.
func (e *Enc) count(n int, isNil bool) {
	if isNil {
		n = -1
	}
	e.Int(n)
}

// PutSlice appends s — its count, then put for each element.
func PutSlice[T any](e *Enc, s []T, put func(*Enc, T)) {
	e.count(len(s), s == nil)
	for _, v := range s {
		put(e, v)
	}
}

// nativeLE reports whether this host keeps a float64 in memory as its
// little-endian bits — the samples' flat form — so that a block of
// samples moves between memory and a body with one copy of its bytes.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// sampleBytes is the memory of v's samples as bytes. It is the package's
// one view of typed memory as bytes: on a nativeLE host those bytes are
// the samples' flat form.
func sampleBytes[T complex128 | float64](v []T) []byte {
	var z T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(z)))
}

// putComplexes writes v's flat form into p element by element. With
// getComplexes, putFloats and getFloats it defines the samples' layout,
// and it is the path of a host that is not nativeLE; elsewhere one copy
// of sampleBytes writes the same bytes.
func putComplexes(p []byte, v []complex128) {
	for i, c := range v {
		binary.LittleEndian.PutUint64(p[16*i:], math.Float64bits(real(c)))
		binary.LittleEndian.PutUint64(p[16*i+8:], math.Float64bits(imag(c)))
	}
}

// getComplexes reads putComplexes' bytes into v.
func getComplexes(v []complex128, p []byte) {
	for i := range v {
		v[i] = complex(math.Float64frombits(binary.LittleEndian.Uint64(p[16*i:])),
			math.Float64frombits(binary.LittleEndian.Uint64(p[16*i+8:])))
	}
}

// putFloats writes v's flat form into p element by element.
func putFloats(p []byte, v []float64) {
	for i, f := range v {
		binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(f))
	}
}

// getFloats reads putFloats' bytes into v.
func getFloats(v []float64, p []byte) {
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
}

// putSamples appends v's count and its samples of size bytes each: one
// copy on a nativeLE host, else the loop.
func putSamples[T complex128 | float64](e *Enc, v []T, size int, loop func([]byte, []T)) {
	e.count(len(v), v == nil)
	p := e.grow(size * len(v))
	if nativeLE {
		copy(p, sampleBytes(v))
	} else {
		loop(p, v)
	}
}

// complexes appends v's samples in one pass.
func (e *Enc) complexes(v []complex128) { putSamples(e, v, 16, putComplexes) }

// floats appends v's samples in one pass.
func (e *Enc) floats(v []float64) { putSamples(e, v, 8, putFloats) }

// shape appends a cube's axis order and dimensions.
func (e *Enc) shape(axes cube.Order, dim [3]int) {
	for _, a := range axes {
		e.Int(int(a))
	}
	for _, d := range dim {
		e.Int(d)
	}
}

// Cube appends c (nil allowed).
func (e *Enc) Cube(c *cube.Cube) {
	e.Bool(c != nil)
	if c != nil {
		e.shape(c.Axes, c.Dim)
		e.complexes(c.Data)
	}
}

// RealCube appends c (nil allowed).
func (e *Enc) RealCube(c *cube.RealCube) {
	e.Bool(c != nil)
	if c != nil {
		e.shape(c.Axes, c.Dim)
		e.floats(c.Data)
	}
}

// Matrix appends m (nil allowed).
func (e *Enc) Matrix(m *linalg.Matrix) {
	e.Bool(m != nil)
	if m != nil {
		e.Int(m.Rows)
		e.Int(m.Cols)
		e.complexes(m.Data)
	}
}

// Detections appends a detection report.
func (e *Enc) Detections(ds []stap.Detection) {
	e.count(len(ds), ds == nil)
	for _, d := range ds {
		e.Int(d.Range)
		e.Int(d.DopplerBin)
		e.Int(d.Beam)
		e.Uint64(math.Float64bits(d.Power))
		e.Uint64(math.Float64bits(d.Threshold))
	}
}

// Dec reads values in the flat form. The first error sticks: every later
// read returns a zero value, and End or Err reports it.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a Dec reading b. Decoded values never alias b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decoding error.
func (d *Dec) Err() error { return d.err }

// Fail records err as the decoding error unless one is already recorded.
func (d *Dec) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// End returns the first decoding error, or an error when bytes remain
// unread: a well-formed body is consumed exactly.
func (d *Dec) End() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("wire: %d trailing bytes after the flat body", len(d.b))
	}
	return d.err
}

// take consumes n bytes, or records truncation and returns nil.
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b) {
		d.err = fmt.Errorf("wire: flat body truncated: need %d bytes, %d left", n, len(d.b))
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

// Bool reads one byte that must be 0 or 1.
func (d *Dec) Bool() bool {
	switch v := d.Byte(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Fail(fmt.Errorf("wire: bool byte %#x", v))
		return false
	}
}

// Uint64 reads a uint64.
func (d *Dec) Uint64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Int64 reads an int64.
func (d *Dec) Int64() int64 { return int64(d.Uint64()) }

// Int reads an int64 as an int.
func (d *Dec) Int() int { return int(d.Int64()) }

// Text reads a count and that many bytes.
func (d *Dec) Text() string {
	n := d.count(1)
	if n < 0 {
		d.Fail(fmt.Errorf("wire: nil string"))
		return ""
	}
	return string(d.take(n))
}

// count reads a slice count, −1 for nil. A count the remaining bytes
// cannot hold at min bytes per element is refused before anything is
// allocated for it.
func (d *Dec) count(min int) int {
	n := d.Int64()
	switch {
	case d.err != nil:
		return -1
	case n < -1:
		d.Fail(fmt.Errorf("wire: negative count %d", n))
		return -1
	case n > int64(len(d.b)/min):
		d.Fail(fmt.Errorf("wire: count %d cannot fit in the %d bytes left", n, len(d.b)))
		return -1
	}
	return int(n)
}

// GetSlice reads a PutSlice: its count, then get for each element. min
// is the fewest bytes one element occupies, so a count the body cannot
// hold is refused before the slice is made.
func GetSlice[T any](d *Dec, min int, get func(*Dec) T) []T {
	n := d.count(min)
	if n < 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = get(d)
	}
	return s
}

// GetSliceInto is GetSlice decoding into s's memory: the result reuses
// s's backing array when its capacity holds the count, else a new array
// of exactly the count holding s's elements, and get receives each
// element's previous value to decode into. Elements past the count are
// dropped, so the result holds the values of this decode only. The count
// is checked before anything grows, and the values are GetSlice's: nil
// for a nil slice, a non-nil empty one for count 0.
func GetSliceInto[T any](d *Dec, s []T, min int, get func(*Dec, T) T) []T {
	n := d.count(min)
	if n < 0 {
		return nil
	}
	if s == nil || n > cap(s) {
		s = append(make([]T, 0, n), s[:cap(s)]...)
	}
	clear(s[n:cap(s)])
	s = s[:n]
	for i := range s {
		s[i] = get(d, s[i])
	}
	return s
}

// getSamples reads a putSamples into v's memory when it was made for
// this count (its capacity), else into a fresh slice of exactly the
// count, so the result never holds more memory than the samples that
// came.
func getSamples[T complex128 | float64](d *Dec, v []T, size int, loop func([]T, []byte)) []T {
	n := d.count(size)
	if n < 0 {
		return nil
	}
	p := d.take(size * n) // count checked that the bytes are there
	if v == nil || cap(v) != n {
		v = make([]T, n)
	}
	v = v[:n]
	if nativeLE {
		copy(sampleBytes(v), p)
	} else {
		loop(v, p)
	}
	return v
}

// complexesInto reads complex samples into v's memory (getSamples).
func (d *Dec) complexesInto(v []complex128) []complex128 { return getSamples(d, v, 16, getComplexes) }

// floatsInto reads real samples into v's memory (getSamples).
func (d *Dec) floatsInto(v []float64) []float64 { return getSamples(d, v, 8, getFloats) }

// shape reads a cube's axis order and dimensions.
func (d *Dec) shape() (axes cube.Order, dim [3]int) {
	for i := range axes {
		axes[i] = cube.Axis(d.Int())
	}
	for i := range dim {
		dim[i] = d.Int()
	}
	return axes, dim
}

// Cube reads a cube (nil when absent or on error).
func (d *Dec) Cube() *cube.Cube { return d.CubeInto(nil) }

// CubeInto is Cube decoding into c when c is non-nil: c's samples keep
// their memory when the sample count is the one it was made for. The
// value is Cube's — nil when absent or on error, Dim and Data as they
// came, so a mismatch still reaches the receiver's shape check.
func (d *Dec) CubeInto(c *cube.Cube) *cube.Cube {
	if !d.Bool() {
		return nil
	}
	axes, dim := d.shape()
	var prev []complex128
	if c != nil {
		prev = c.Data
	}
	data := d.complexesInto(prev)
	if d.err != nil {
		return nil
	}
	if c == nil {
		c = new(cube.Cube)
	}
	*c = cube.Cube{Axes: axes, Dim: dim, Data: data}
	return c
}

// RealCubeInto is CubeInto for a real cube: it reads one into c when c
// is non-nil (nil when absent or on error).
func (d *Dec) RealCubeInto(c *cube.RealCube) *cube.RealCube {
	if !d.Bool() {
		return nil
	}
	axes, dim := d.shape()
	var prev []float64
	if c != nil {
		prev = c.Data
	}
	data := d.floatsInto(prev)
	if d.err != nil {
		return nil
	}
	if c == nil {
		c = new(cube.RealCube)
	}
	*c = cube.RealCube{Axes: axes, Dim: dim, Data: data}
	return c
}

// MatrixInto is CubeInto for a matrix: it reads one into m when m is
// non-nil (nil when absent or on error).
func (d *Dec) MatrixInto(m *linalg.Matrix) *linalg.Matrix {
	if !d.Bool() {
		return nil
	}
	rows, cols := d.Int(), d.Int()
	var prev []complex128
	if m != nil {
		prev = m.Data
	}
	data := d.complexesInto(prev)
	if d.err != nil {
		return nil
	}
	if m == nil {
		m = new(linalg.Matrix)
	}
	*m = linalg.Matrix{Rows: rows, Cols: cols, Data: data}
	return m
}

// Detections reads a detection report.
func (d *Dec) Detections() []stap.Detection { return d.DetectionsInto(nil) }

// DetectionsInto reads a detection report into ds's memory (GetSliceInto).
func (d *Dec) DetectionsInto(ds []stap.Detection) []stap.Detection {
	return GetSliceInto(d, ds, detectionBytes, func(d *Dec, _ stap.Detection) stap.Detection {
		return stap.Detection{Range: d.Int(), DopplerBin: d.Int(), Beam: d.Int(),
			Power: math.Float64frombits(d.Uint64()), Threshold: math.Float64frombits(d.Uint64())}
	})
}

// errNilCube refuses a nil cube as a whole frame: the value a receiver
// would decode it into has no nil.
var errNilCube = errors.New("wire: a frame cannot hold a nil cube")

// appendFlat appends v's flat form. A bare *cube.Cube is a frame of its
// own so that a probe of the codec (bench's wire layer) prices the
// samples' path.
func appendFlat(e *Enc, v any) error {
	switch v := v.(type) {
	case Flattener:
		return v.AppendFlat(e)
	case *cube.Cube:
		if v == nil {
			return errNilCube
		}
		e.Cube(v)
		return nil
	}
	return fmt.Errorf("wire: %T has no flat form", v)
}

// decodeFlat decodes d's whole body into v.
func decodeFlat(d *Dec, v any) error {
	switch v := v.(type) {
	case FlatDecoder:
		d.Fail(v.DecodeFlat(d))
	case *cube.Cube:
		if d.CubeInto(v) == nil {
			d.Fail(errNilCube)
		}
	default:
		return fmt.Errorf("wire: a flat frame cannot decode into %T", v)
	}
	if err := d.End(); err != nil {
		return fmt.Errorf("wire: decode flat frame: %w", err)
	}
	return nil
}
