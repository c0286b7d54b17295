package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
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

// Enc appends values in the flat form to a byte slice. A Writer's Enc
// gathers instead: where its host keeps samples in their flat form
// (nativeLE) it borrows a block of at least gatherMin bytes of samples
// rather than copy it, and the Writer sends its buffer and the borrowed
// blocks in order. The value an Enc borrows from must stay unchanged
// until the frame is written.
type Enc struct {
	b      []byte
	gather bool
	lent   []loan
}

// loan is a borrowed block of samples and its place in the frame: the
// length of the Enc's buffer when it was borrowed.
type loan struct {
	at int
	p  []byte
}

// gatherMin is the smallest sample block a gathering Enc borrows. Below
// it, copying the block into the frame buffer costs less than the writev
// entry borrowing adds, and a frame of small blocks stays one contiguous
// write. Over loopback TCP on a 2-vCPU x86-64 host, a frame of four
// blocks cost 10–30% more borrowed than copied at 1–2 KiB a block, the
// same at 4 KiB, and 8–15% less at 8–32 KiB.
const gatherMin = 8 << 10

// Bytes returns everything appended so far: on a gathering Enc, all but
// the borrowed blocks.
func (e *Enc) Bytes() []byte { return e.b }

// size is the length of the flat form appended so far, borrowed blocks
// included.
func (e *Enc) size() int {
	n := len(e.b)
	for _, l := range e.lent {
		n += len(l.p)
	}
	return n
}

// pieces appends to iov the flat form appended so far, in order: the
// runs of the buffer between borrowed blocks, and the blocks.
func (e *Enc) pieces(iov [][]byte) [][]byte {
	at := 0
	for _, l := range e.lent {
		if l.at > at {
			iov = append(iov, e.b[at:l.at])
		}
		iov = append(iov, l.p)
		at = l.at
	}
	if at < len(e.b) {
		iov = append(iov, e.b[at:])
	}
	return iov
}

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
// copy on a nativeLE host (none when a gathering Enc borrows the block),
// else the loop.
func putSamples[T complex128 | float64](e *Enc, v []T, size int, loop func([]byte, []T)) {
	e.count(len(v), v == nil)
	switch {
	case !nativeLE:
		loop(e.grow(size*len(v)), v)
	case e.gather && size*len(v) >= gatherMin:
		e.lent = append(e.lent, loan{at: len(e.b), p: sampleBytes(v)})
	default:
		copy(e.grow(size*len(v)), sampleBytes(v))
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

// Dec reads values in the flat form, from a body in memory (NewDec) or
// from a stream as the body arrives (Reader.Decode). The first error
// sticks: every later read returns a zero value, and End or Err reports
// it.
type Dec struct {
	// b is the bytes at hand: the whole body in memory, or on a stream
	// the unconsumed tail of the held bytes.
	b []byte
	// A streamed body's rest is in br: held bytes peeked into its buffer
	// (b's), then left bytes still to come. Held bytes are discarded
	// before br is read again.
	br         *bufio.Reader
	held, left int
	ioNs       int64 // time spent reading past br's buffer
	cut        error // the read error that cut a streamed body short
	err        error
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

// remaining is how many bytes of the body are still to be read.
func (d *Dec) remaining() int { return len(d.b) + d.left }

// End returns the first decoding error, or an error when bytes remain
// unread: a well-formed body is consumed exactly.
func (d *Dec) End() error {
	if n := d.remaining(); d.err == nil && n > 0 {
		d.err = fmt.Errorf("wire: %d trailing bytes after the flat body", n)
	}
	return d.err
}

// need records truncation unless n more bytes of the body remain.
func (d *Dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if n > d.remaining() {
		d.err = fmt.Errorf("wire: flat body truncated: need %d bytes, %d left", n, d.remaining())
		return false
	}
	return true
}

// readFailed records that the stream ended, or failed, before the body
// did.
func (d *Dec) readFailed(err error) {
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	d.cut = err
	d.Fail(err)
}

// window is the most bytes take can return at once.
func (d *Dec) window() int {
	if d.br == nil {
		return len(d.b)
	}
	return d.br.Size()
}

// take consumes n bytes, or records truncation and returns nil. On a
// stream, n is at most window, and bytes not yet at hand are peeked into
// br's buffer: all it holds of the body, at least n.
func (d *Dec) take(n int) []byte {
	if !d.need(n) {
		return nil
	}
	if n > len(d.b) {
		if n > d.window() {
			d.Fail(fmt.Errorf("wire: %d contiguous bytes exceed the %d-byte read-ahead", n, d.window()))
			return nil
		}
		d.br.Discard(d.held - len(d.b))
		d.held = len(d.b)
		want := min(d.remaining(), max(n, d.br.Buffered()), d.br.Size())
		var p []byte
		var err error
		if want > d.br.Buffered() {
			start := time.Now()
			p, err = d.br.Peek(want)
			d.ioNs += time.Since(start).Nanoseconds()
		} else {
			p, _ = d.br.Peek(want)
		}
		d.left -= len(p) - d.held
		d.held, d.b = len(p), p
		if len(p) < n {
			d.readFailed(err)
			return nil
		}
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// read consumes len(p) bytes into p: the bytes at hand, then the rest of
// them read from the stream straight into p.
func (d *Dec) read(p []byte) {
	if !d.need(len(p)) {
		return
	}
	k := copy(p, d.b)
	d.b = d.b[k:]
	if k == len(p) {
		return
	}
	d.br.Discard(d.held)
	d.held = 0
	start := time.Now()
	m, err := io.ReadFull(d.br, p[k:])
	d.ioNs += time.Since(start).Nanoseconds()
	d.left -= m
	if err != nil {
		d.readFailed(err)
	}
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
	if n <= d.window() {
		return string(d.take(n))
	}
	return string(arriving(d, n, 1, d.read))
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
	case n > int64(d.remaining()/min):
		d.Fail(fmt.Errorf("wire: count %d cannot fit in the %d bytes left", n, d.remaining()))
		return -1
	}
	return int(n)
}

// arriving reads n elements of size bytes each through fill into memory
// of its own of exactly n elements. When their bytes are not all at hand,
// that memory grows as they arrive, from one read-ahead's worth, so a
// count that overstates what follows costs no more than what came. It
// returns nil on error.
func arriving[T any](d *Dec, n, size int, fill func([]T)) []T {
	c := n
	if n*size > len(d.b) {
		c = min(n, max(1, aheadBytes/size))
	}
	v := make([]T, c)
	fill(v)
	for d.err == nil && c < n {
		grown := make([]T, min(n, 2*c))
		copy(grown, v)
		fill(grown[c:])
		v, c = grown, len(grown)
	}
	if d.err != nil {
		return nil
	}
	return v
}

// GetSlice reads a PutSlice: its count, then get for each element. least
// is the fewest bytes one element occupies, so a count the body cannot
// hold is refused before the slice is made.
func GetSlice[T any](d *Dec, least int, get func(*Dec) T) []T {
	return GetSliceInto(d, nil, least, func(d *Dec, _ T) T { return get(d) })
}

// GetSliceInto is GetSlice decoding into s's memory: the result reuses
// s's backing array when its capacity holds the count, else a new array
// of exactly the count holding s's elements, and get receives each
// element's previous value to decode into. Elements past the count are
// dropped, so the result holds the values of this decode only. The count
// is checked before anything grows, and a new array grows as its
// elements arrive (arriving). The values are GetSlice's: nil for a nil
// slice, a non-nil empty one for count 0; on error the result holds the
// elements decoded before it.
func GetSliceInto[T any](d *Dec, s []T, least int, get func(*Dec, T) T) []T {
	n := d.count(least)
	if n < 0 {
		return nil
	}
	if s != nil && n <= cap(s) {
		clear(s[n:cap(s)])
		s = s[:n]
	} else {
		// Start from s's elements and what the bytes at hand can hold.
		c := max(cap(s), min(n, len(d.b)/least))
		s = append(make([]T, 0, c), s[:cap(s)]...)[:c]
	}
	for i := 0; i < n; i++ {
		if i == len(s) {
			c := min(n, max(1, 2*i))
			s = append(make([]T, 0, c), s...)[:c]
		}
		s[i] = get(d, s[i])
		if d.err != nil {
			return s[:i]
		}
	}
	return s
}

// getSamples reads a putSamples into v's memory when it was made for
// this count (its capacity): on a stream, straight from the stream. Else
// it reads into memory of its own of exactly the count, grown as the
// samples arrive (arriving), so the result never holds more memory than
// the samples that came.
func getSamples[T complex128 | float64](d *Dec, v []T, size int, loop func([]T, []byte)) []T {
	n := d.count(size)
	if n < 0 {
		return nil
	}
	fill := func(v []T) {
		if nativeLE {
			d.read(sampleBytes(v))
			return
		}
		for len(v) > 0 {
			k := max(1, min(len(v), d.window()/size))
			p := d.take(k * size)
			if p == nil {
				return
			}
			loop(v[:k], p)
			v = v[k:]
		}
	}
	if v == nil || cap(v) != n {
		return arriving(d, n, size, fill)
	}
	v = v[:n]
	fill(v)
	if d.err != nil {
		return nil
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
