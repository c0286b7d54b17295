package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"pstap/internal/cube"
	"pstap/internal/linalg"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

// msg is a small message with a flat form of its own, like a dist link
// frame.
type msg struct {
	ID   uint64
	Body []float64
}

func (m *msg) AppendFlat(e *Enc) error {
	e.Uint64(m.ID)
	PutSlice(e, m.Body, func(e *Enc, v float64) { e.Uint64(math.Float64bits(v)) })
	return nil
}

func (m *msg) DecodeFlat(d *Dec) error {
	m.ID = d.Uint64()
	m.Body = GetSlice(d, 8, func(d *Dec) float64 { return math.Float64frombits(d.Uint64()) })
	return nil
}

// payload is a message built from the four payload types, the way the
// pipeline's messages and serve's Request/Response are.
type payload struct {
	C  *cube.Cube
	RC *cube.RealCube
	M  *linalg.Matrix
	D  []stap.Detection
}

func (p *payload) AppendFlat(e *Enc) error {
	e.Cube(p.C)
	e.RealCube(p.RC)
	e.Matrix(p.M)
	e.Detections(p.D)
	return nil
}

func (p *payload) DecodeFlat(d *Dec) error {
	p.C, p.RC, p.M, p.D = d.Cube(), d.RealCubeInto(nil), d.MatrixInto(nil), d.Detections()
	return nil
}

// header builds a frame header by hand.
func header(version byte, kind Kind, n uint32) []byte {
	h := []byte{version, byte(kind), 0, 0, 0, 0}
	binary.BigEndian.PutUint32(h[2:], n)
	return h
}

func testCube() *cube.Cube {
	c := cube.New(cube.Order{cube.Range, cube.Channel, cube.Pulse}, 2, 3, 2)
	for i := range c.Data {
		c.Data[i] = complex(float64(i), -float64(i))
	}
	c.Data[1] = complex(math.NaN(), math.Copysign(0, -1))
	c.Data[2] = complex(math.Inf(1), math.Inf(-1))
	return c
}

// sameCube compares two cubes sample by sample on their bit patterns.
func sameCube(a, b *cube.Cube) bool {
	if a.Axes != b.Axes || a.Dim != b.Dim || len(a.Data) != len(b.Data) || (a.Data == nil) != (b.Data == nil) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(real(a.Data[i])) != math.Float64bits(real(b.Data[i])) ||
			math.Float64bits(imag(a.Data[i])) != math.Float64bits(imag(b.Data[i])) {
			return false
		}
	}
	return true
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := []msg{{1, []float64{1, 2, 3}}, {2, nil}, {3, []float64{-0.5}}}
	for _, m := range want {
		if err := WriteFrame(&buf, &m); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, w := range want {
		var got msg
		if err := ReadFrame(&buf, &got); err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, w)
		}
	}
	var v msg
	if err := ReadFrame(&buf, &v); err != io.EOF {
		t.Fatalf("clean end: got %v, want io.EOF", err)
	}

	// The payload types travel flat, bit for bit, through one Writer/Reader
	// pair reusing its buffers, each frame under the kind its writer named.
	c := testCube()
	rc := cube.NewReal(cube.Order{cube.Beam, cube.Doppler, cube.Range}, 1, 1, 3)
	rc.Data[0], rc.Data[1] = math.NaN(), math.Inf(-1)
	m := linalg.NewMatrix(2, 1)
	m.Data[1] = complex(math.Copysign(0, -1), 7)
	dets := []stap.Detection{{Range: 1, DopplerBin: 2, Beam: 3, Power: 4, Threshold: 5}}
	fw, fr := NewWriter(&buf), NewReader(&buf)
	kinds := []Kind{Plain, 0, 'p', 0xff, Plain}
	for i, v := range []any{c, &msg{ID: 4}, &payload{C: c, RC: rc, M: m, D: dets}, &payload{D: []stap.Detection{}}, &cube.Cube{}} {
		if _, err := fw.WriteFrame(kinds[i], v); err != nil {
			t.Fatalf("WriteFrame %T: %v", v, err)
		}
	}
	read := func(v any, kind Kind) {
		t.Helper()
		got, _, err := fr.Next()
		if err != nil || got != kind {
			t.Fatalf("Next = %q, %v; want %q", got, err, kind)
		}
		if _, err := fr.Decode(v); err != nil {
			t.Fatalf("Decode %T: %v", v, err)
		}
	}
	var gc cube.Cube
	read(&gc, Plain)
	if !sameCube(&gc, c) {
		t.Errorf("cube: got %v, want %v", gc.Data, c.Data)
	}
	first := gc
	read(&v, 0)
	if v.ID != 4 || v.Body != nil {
		t.Errorf("msg frame between payload ones: %+v", v)
	}
	var p payload
	read(&p, 'p')
	if !sameCube(p.C, c) {
		t.Errorf("payload cube: got %v, want %v", p.C.Data, c.Data)
	}
	if p.RC.Axes != rc.Axes || p.RC.Dim != rc.Dim || math.Float64bits(p.RC.Data[0]) != math.Float64bits(rc.Data[0]) ||
		p.RC.Data[1] != rc.Data[1] || p.RC.Data[2] != 0 {
		t.Errorf("real cube: got %+v, want %+v", p.RC, rc)
	}
	if p.M.Rows != 2 || p.M.Cols != 1 || math.Float64bits(real(p.M.Data[1])) != math.Float64bits(real(m.Data[1])) || imag(p.M.Data[1]) != 7 {
		t.Errorf("matrix: got %+v, want %+v", p.M, m)
	}
	if !reflect.DeepEqual(p.D, dets) {
		t.Errorf("detections: got %+v, want %+v", p.D, dets)
	}
	read(&p, 0xff) // a reused target is overwritten whole
	if p.C != nil || p.RC != nil || p.M != nil || p.D == nil || len(p.D) != 0 {
		t.Errorf("nil values and an empty report decoded as %+v", p)
	}
	gc.Data = []complex128{1}
	read(&gc, Plain)
	if gc.Data != nil || gc.Dim != [3]int{} {
		t.Errorf("empty cube into a reused target: %+v", gc)
	}
	// Decoded samples are fresh memory: the frames read since through the
	// same buffer left the first cube intact.
	if !sameCube(&first, c) {
		t.Errorf("first cube changed under later frames: %v", first.Data)
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("clean end: got %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsCorruptInput(t *testing.T) {
	// Truncated header: not clean EOF.
	var v msg
	if err := ReadFrame(bytes.NewReader([]byte{1, 2, 3}), &v); err == nil || err == io.EOF {
		t.Fatalf("truncated header: got %v", err)
	}

	// Oversized length prefix must be refused before allocating.
	if err := ReadFrame(bytes.NewReader(header(FormatVersion, Plain, MaxFrameBytes+1)), &v); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized prefix: got %v", err)
	}

	// Another build's frame is refused with both versions named.
	err := ReadFrame(bytes.NewReader(header(FormatVersion+1, Plain, 0)), &v)
	var verr *VersionError
	if !errors.As(err, &verr) || verr.Got != FormatVersion+1 || verr.Want != FormatVersion ||
		!strings.Contains(err.Error(), "format version") {
		t.Fatalf("other version: got %v", err)
	}

	// A frame of another kind where plain ones are expected.
	if err := ReadFrame(bytes.NewReader(header(FormatVersion, 'x', 0)), &v); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("other kind: got %v", err)
	}

	// Truncated payload.
	var short bytes.Buffer
	if err := WriteFrame(&short, &msg{ID: 7}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	b := short.Bytes()[:short.Len()-1]
	if err := ReadFrame(bytes.NewReader(b), &v); err == nil || err == io.EOF {
		t.Fatalf("truncated payload: got %v", err)
	}

	// Well-framed garbage bytes: error, not panic.
	garbage := append(header(FormatVersion, Plain, 4), 0xff, 0xfe, 0xfd, 0xfc)
	if err := ReadFrame(bytes.NewReader(garbage), &v); err == nil || err == io.EOF {
		t.Fatalf("garbage payload: got %v", err)
	}

	// A type without a flat form is neither written nor read.
	var flat bytes.Buffer
	if err := WriteFrame(&flat, struct{ X int }{}); err == nil || !strings.Contains(err.Error(), "no flat form") {
		t.Fatalf("writing a type without a flat form: got %v", err)
	}
	if err := WriteFrame(&flat, testCube()); err != nil {
		t.Fatal(err)
	}
	var nf struct{ X int }
	if err := ReadFrame(bytes.NewReader(flat.Bytes()), &nf); err == nil || !strings.Contains(err.Error(), "cannot decode into") {
		t.Fatalf("frame into %T: got %v", &nf, err)
	}
}

// flatCorpus is a cube frame and frames of messages built from all four
// payload types, as bytes.
func flatCorpus(t testing.TB) [][]byte {
	m := linalg.NewMatrix(1, 2)
	m.Data[0] = 3 - 4i
	var out [][]byte
	for _, v := range []any{testCube(),
		&payload{RC: cube.NewReal(cube.Order{cube.Beam, cube.Doppler, cube.Range}, 1, 2, 1), M: m,
			D: []stap.Detection{{Range: 1, Power: 2}}},
		&payload{C: testCube(), D: []stap.Detection{}}} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, v); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// TestFlatFrameTruncatedEverywhere cuts each flat frame at every byte
// offset: every strict prefix is an error (io.EOF only for the empty
// one), and so is every cut body re-framed with its length patched to
// match — never a panic.
func TestFlatFrameTruncatedEverywhere(t *testing.T) {
	for _, full := range flatCorpus(t) {
		var v any
		for _, tv := range []any{&cube.Cube{}, &payload{}} {
			if ReadFrame(bytes.NewReader(full), tv) == nil {
				v = tv
			}
		}
		if v == nil {
			t.Fatal("corpus frame decodes into no flat type")
		}
		for n := 0; n < len(full); n++ {
			err := ReadFrame(bytes.NewReader(full[:n]), v)
			if n == 0 && err != io.EOF {
				t.Errorf("empty stream: got %v, want io.EOF", err)
			}
			if n > 0 && (err == nil || err == io.EOF) {
				t.Errorf("prefix %d/%d: got %v, want an error", n, len(full), err)
			}
			if n < headerBytes {
				continue
			}
			// The same prefix, re-framed as a complete shorter body.
			cut := append(header(FormatVersion, Plain, uint32(n-headerBytes)), full[headerBytes:n]...)
			if err := ReadFrame(bytes.NewReader(cut), v); err == nil {
				t.Errorf("body cut to %d bytes decoded without error", n-headerBytes)
			}
		}
	}
}

// TestFlatCountRefusedBeforeAllocating: a count the body cannot hold is
// an error, whatever it claims.
func TestFlatCountRefusedBeforeAllocating(t *testing.T) {
	var e Enc
	e.Bool(true)
	e.shape(cube.Order{}, [3]int{1 << 20, 1 << 20, 1 << 20})
	e.Int(1 << 60) // samples claimed; none follow
	body := e.Bytes()
	err := decodeFlat(NewDec(body), &cube.Cube{})
	if err == nil || !strings.Contains(err.Error(), "cannot fit") {
		t.Fatalf("huge sample count: got %v", err)
	}
	e = Enc{}
	e.Cube(nil)
	e.RealCube(nil)
	e.Matrix(nil)
	e.Int(-7) // the detection count
	if err := decodeFlat(NewDec(e.Bytes()), &payload{}); err == nil || !strings.Contains(err.Error(), "negative count") {
		t.Fatalf("negative count: got %v", err)
	}
	if err := decodeFlat(NewDec([]byte{2}), &cube.Cube{}); err == nil {
		t.Fatal("a bad presence byte decoded")
	}
	var ok Enc
	(&payload{}).AppendFlat(&ok)
	if err := decodeFlat(NewDec(append(ok.Bytes(), 0)), &payload{}); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: got %v", err)
	}
}

// overstatedFrame is a cube frame whose header and sample count claim
// 512 MiB of samples, of which 1 KiB follows before the stream ends.
func overstatedFrame() []byte {
	const claimed = 512 << 20
	var e Enc
	e.Bool(true)
	e.shape(cube.Order{cube.Range, cube.Channel, cube.Pulse}, [3]int{claimed / 16, 1, 1})
	e.Int(claimed / 16)
	body := append(e.Bytes(), make([]byte, 1<<10)...)
	return append(header(FormatVersion, Plain, uint32(len(e.Bytes())+claimed)), body...)
}

// TestOverstatedCountCostsWhatCame: a body whose sample count overstates
// the bytes that follow is an error, not a panic, and the memory its
// decode makes grows only with the bytes that came — the 1 KiB of
// overstatedFrame costs well under 4 MiB of heap, read at once or a byte
// at a time, into a fresh cube or one of another size.
func TestOverstatedCountCostsWhatCame(t *testing.T) {
	frame := overstatedFrame()
	for _, r := range []func() io.Reader{
		func() io.Reader { return bytes.NewReader(frame) },
		func() io.Reader { return iotest.OneByteReader(bytes.NewReader(frame)) },
	} {
		for _, into := range []*cube.Cube{{}, testCube()} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			err := ReadFrame(r(), into)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "truncated") {
				t.Fatalf("a 512 MiB count with 1 KiB of samples: got %v, want a truncation error", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
				t.Errorf("decoding 1 KiB of a 512 MiB claim allocated %d bytes", grew)
			}
		}
	}
}

func TestTimedFramesMeasure(t *testing.T) {
	var buf bytes.Buffer
	m := msg{ID: 9, Body: make([]float64, 4096)}
	fw, fr := NewWriter(&buf), NewReader(&buf)
	wt, err := fw.WriteFrame(Plain, &m)
	if err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if wt.Bytes != int64(buf.Len()) {
		t.Errorf("write Bytes %d, want buffered %d", wt.Bytes, buf.Len())
	}
	if wt.CodecNs <= 0 {
		t.Errorf("write CodecNs %d, want > 0", wt.CodecNs)
	}
	if wt.IONs < 0 {
		t.Errorf("write IONs %d", wt.IONs)
	}

	wireLen := int64(buf.Len())
	var got msg
	rt, err := fr.ReadFrame(&got)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if got.ID != 9 || len(got.Body) != 4096 {
		t.Fatalf("round trip: %+v", got)
	}
	if rt.Bytes != wireLen {
		t.Errorf("read Bytes %d, want %d", rt.Bytes, wireLen)
	}
	if rt.CodecNs <= 0 || rt.IONs < 0 {
		t.Errorf("read timing %+v", rt)
	}

	// A cube frame is timed the same way, and counts its exact size.
	c := cube.New(cube.Order{}, 4, 4, 4)
	ft, err := fw.WriteFrame(Plain, c)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(headerBytes + 1 + 6*8 + 8 + 16*64); ft.Bytes != want || ft.CodecNs <= 0 {
		t.Errorf("flat write timing %+v, want %d bytes", ft, want)
	}
	if rt, err := fr.ReadFrame(&cube.Cube{}); err != nil || rt.Bytes != ft.Bytes || rt.CodecNs <= 0 {
		t.Errorf("flat read timing %+v, %v", rt, err)
	}

	// A timed read that hits clean EOF reports it exactly like ReadFrame.
	if _, err := fr.ReadFrame(&got); err != io.EOF {
		t.Fatalf("clean end: got %v, want io.EOF", err)
	}
}

// cubes is a list of cubes decoded into the memory of the previous
// decode, the way serve's Request is.
type cubes struct{ C []*cube.Cube }

func (c *cubes) AppendFlat(e *Enc) error {
	PutSlice(e, c.C, (*Enc).Cube)
	return nil
}

func (c *cubes) DecodeFlat(d *Dec) error {
	c.C = GetSliceInto(d, c.C, 1, (*Dec).CubeInto)
	return nil
}

// TestDecodeIntoWarmValues reads a run of frames through one Reader into
// one reused value: each decode equals a one-shot decode
// of the same frame bit for bit (their flat forms are equal) — nil and
// empty lists and samples, a Dim that disagrees with Data. Samples of the
// count a cube was made for land in its memory; any other count gets
// memory of its own size, and list entries past the count are dropped, so
// the value holds no more than the frame it was decoded from.
func TestDecodeIntoWarmValues(t *testing.T) {
	big, again := testCube(), testCube()
	again.Data[0] = 7
	mismatched := testCube()
	mismatched.Dim[0]++
	var stream bytes.Buffer
	frames := []*cubes{
		{C: []*cube.Cube{big, big}},
		{C: []*cube.Cube{again}},
		{C: []*cube.Cube{{Axes: big.Axes, Dim: big.Dim, Data: big.Data[:3]}}},
		{C: []*cube.Cube{nil, {Data: []complex128{}}, {}}},
		{},
		{C: []*cube.Cube{}},
		{C: []*cube.Cube{mismatched, big, big}},
	}
	for _, f := range frames {
		if err := WriteFrame(&stream, f); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewReader(bytes.NewReader(stream.Bytes()))
	var warm cubes
	for i, f := range frames {
		var fresh cubes
		var one bytes.Buffer
		WriteFrame(&one, f)
		if err := ReadFrame(&one, &fresh); err != nil {
			t.Fatal(err)
		}
		var prev *complex128
		if len(warm.C) > 0 && warm.C[0] != nil && len(warm.C[0].Data) > 0 {
			prev = &warm.C[0].Data[0]
		}
		if _, _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
		if _, err := fr.Decode(&warm); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var a, b bytes.Buffer
		WriteFrame(&a, &warm)
		WriteFrame(&b, &fresh)
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("frame %d: the warm decode differs from a one-shot decode", i)
		}
		switch i {
		case 1:
			if &warm.C[0].Data[0] != prev {
				t.Error("samples of the same count were decoded into new memory")
			}
			if tail := warm.C[:cap(warm.C)]; len(tail) != 2 || tail[1] != nil {
				t.Error("the list entry past the count was kept")
			}
		case 2:
			if &warm.C[0].Data[0] == prev || cap(warm.C[0].Data) != 3 {
				t.Errorf("3 samples decoded into the memory of 12 (capacity %d)", cap(warm.C[0].Data))
			}
		}
	}
}

// TestSkipKeepsTheHeadOnly reads past a frame's body, keeping its first
// bytes, and leaves the stream at the next frame.
func TestSkipKeepsTheHeadOnly(t *testing.T) {
	var stream bytes.Buffer
	WriteFrame(&stream, &msg{ID: 42, Body: make([]float64, 1000)})
	WriteFrame(&stream, &msg{ID: 43, Body: []float64{1}})
	stream.Write(header(FormatVersion, Plain, 100)) // cut short
	stream.Write([]byte{1, 2, 3})
	fr := NewReader(&stream)
	fr.Next()
	var head [8]byte
	if n, err := fr.Skip(head[:]); err != nil || n != 8 || NewDec(head[:]).Uint64() != 42 {
		t.Fatalf("skip: %d bytes, %v, head %x", n, err, head)
	}
	if fr.own != nil {
		t.Error("Skip made the Reader's read-ahead")
	}
	var m msg
	if _, err := fr.ReadFrame(&m); err != nil || m.ID != 43 {
		t.Fatalf("frame after the skipped one: %+v, %v", m, err)
	}
	fr.Next()
	if n, err := fr.Skip(head[:]); err == nil || n != 3 {
		t.Fatalf("truncated body skipped: %d bytes, %v", n, err)
	}
}

// edgeSamples are the float64s a codec must carry bit for bit: ±0, ±Inf,
// subnormals of both signs, and NaNs of both signs with distinct payloads,
// quiet and signalling.
var edgeSamples = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -2.5, math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000f_ffff_ffff_ffff),
	math.Float64frombits(0x7ff8_0000_0000_0001), math.Float64frombits(0x7ff0_0000_dead_beef),
	math.Float64frombits(0xfff8_0000_0000_0ace), math.Float64frombits(0xfff4_0000_0000_0000),
}

// TestSampleCopyIsTheLoop: where a block of samples moves with one copy
// (nativeLE), the copy writes exactly the bytes of the element-by-element
// definition of the format, and reads back exactly the bits it reads, for
// complex and real samples over edgeSamples.
func TestSampleCopyIsTheLoop(t *testing.T) {
	if !nativeLE {
		t.Skip("this host moves samples with the loops alone")
	}
	var cs []complex128
	for _, re := range edgeSamples {
		for _, im := range edgeSamples {
			cs = append(cs, complex(re, im))
		}
	}
	bits := func(fs ...float64) (b []uint64) {
		for _, f := range fs {
			b = append(b, math.Float64bits(f))
		}
		return b
	}
	complexBits := func(cs []complex128) (b []uint64) {
		for _, c := range cs {
			b = append(b, bits(real(c), imag(c))...)
		}
		return b
	}

	loop := make([]byte, 16*len(cs))
	putComplexes(loop, cs)
	var e Enc
	e.complexes(cs)
	if !bytes.Equal(e.Bytes()[8:], loop) {
		t.Error("complex samples: the copy writes other bytes than the loop")
	}
	fromLoop := make([]complex128, len(cs))
	getComplexes(fromLoop, loop)
	fromCopy := NewDec(e.Bytes()).complexesInto(nil)
	if want := complexBits(cs); !reflect.DeepEqual(complexBits(fromCopy), want) || !reflect.DeepEqual(complexBits(fromLoop), want) {
		t.Error("complex samples: the copy or the loop reads back other bits")
	}

	loop = make([]byte, 8*len(edgeSamples))
	putFloats(loop, edgeSamples)
	e = Enc{}
	e.floats(edgeSamples)
	if !bytes.Equal(e.Bytes()[8:], loop) {
		t.Error("real samples: the copy writes other bytes than the loop")
	}
	fs := make([]float64, len(edgeSamples))
	getFloats(fs, loop)
	if want := bits(edgeSamples...); !reflect.DeepEqual(bits(NewDec(e.Bytes()).floatsInto(nil)...), want) || !reflect.DeepEqual(bits(fs...), want) {
		t.Error("real samples: the copy or the loop reads back other bits")
	}
}

// BenchmarkMediumPieceFrame encodes and decodes one Doppler-major piece
// of radar.Medium() — what each of A10's two Doppler workers sends the
// hard beamformer per CPI, 0.9 MB — through a warm Writer and Reader into
// a warm cube: a dist link's codec, per frame, without the socket.
func BenchmarkMediumPieceFrame(b *testing.B) {
	p := radar.Medium()
	piece := cube.New(radar.BeamformInOrder, p.Nhard, p.K/2, 2*p.J)
	for i := range piece.Data {
		piece.Data[i] = complex(float64(i), -float64(i))
	}
	var link bytes.Buffer
	fw, fr := NewWriter(&link), NewReader(&link)
	warm := new(cube.Cube)
	frame := func() {
		if _, err := fw.WriteFrame(Plain, piece); err != nil {
			b.Fatal(err)
		}
		if _, err := fr.ReadFrame(warm); err != nil {
			b.Fatal(err)
		}
	}
	frame() // size the buffers and the cube
	b.SetBytes(16 * int64(len(piece.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame()
	}
	if !sameCube(warm, piece) {
		b.Fatal("the piece did not survive the frame")
	}
}
