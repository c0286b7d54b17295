package pipeline

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"testing"
	"testing/iotest"

	"pstap/internal/cube"
	"pstap/internal/linalg"
	"pstap/internal/wire"
)

// msgFrame is an inter-task message as a frame of its own, the way a dist
// data frame carries one after its address.
type msgFrame struct{ m any }

func (f *msgFrame) AppendFlat(e *wire.Enc) error { return AppendMessage(e, f.m) }

func (f *msgFrame) DecodeFlat(d *wire.Dec) (err error) {
	f.m, err = DecodeMessageInto(d, f.m)
	return err
}

// copyFrame is v's frame as the copying encoder builds it, the reference
// a gathered frame must equal byte for byte: the header, then the body
// appended into one buffer by a zero Enc, every sample block copied in.
func copyFrame(tb testing.TB, k wire.Kind, v wire.Flattener) []byte {
	var e wire.Enc
	if err := v.AppendFlat(&e); err != nil {
		tb.Fatal(err)
	}
	hdr := []byte{wire.FormatVersion, byte(k), 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[2:], uint32(len(e.Bytes())))
	return append(hdr, e.Bytes()...)
}

// countingWriter is a plain io.Writer that counts its Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// writtenFrames returns v's frame as a Writer writes it through a
// loopback TCP connection (a writev when it gathers sample blocks) and
// through a plain io.Writer (a Write per piece), and how many Write calls
// the plain one took.
func writtenFrames(tb testing.TB, k wire.Kind, v any) (tcp, plain []byte, writes int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	sent := make(chan error, 1)
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			_, err = wire.NewWriter(c).WriteFrame(k, v)
			c.Close()
		}
		sent <- err
	}()
	c, err := ln.Accept()
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	tcp, err = io.ReadAll(c)
	if err == nil {
		err = <-sent
	}
	if err != nil {
		tb.Fatal(err)
	}
	var w countingWriter
	if _, err := wire.NewWriter(&w).WriteFrame(k, v); err != nil {
		tb.Fatal(err)
	}
	return tcp, w.Bytes(), w.writes
}

// nativeLE reports whether this host keeps a float64 in memory as its
// little-endian bits, where a Writer borrows sample blocks.
func nativeLE() bool { return binary.NativeEndian.Uint16([]byte{1, 0}) == 1 }

// largeCases are messages of every kind that carries samples whose
// sample blocks are large enough for a Writer to borrow rather than copy.
func largeCases() []any {
	block := func(n int) []complex128 {
		v := make([]complex128, n)
		for i := range v {
			v[i] = complex(float64(i), oddFloats[i%len(oddFloats)])
		}
		return v
	}
	c := &cube.Cube{Axes: cube.Order{cube.Range, cube.Channel, cube.Pulse}, Dim: [3]int{64, 4, 16}, Data: block(64 * 4 * 16)}
	m := &linalg.Matrix{Rows: 32, Cols: 64, Data: block(32 * 64)}
	rc := cube.NewReal(cube.Order{cube.Beam, cube.Doppler, cube.Range}, 4, 16, 64)
	for i := range rc.Data {
		rc.Data[i] = oddFloats[i%len(oddFloats)]
	}
	return []any{
		&rawMsg{Slab: c, Ctl: ctl{Reset: true, Trace: 3}},
		&easyTrainMsg{Rows: []*linalg.Matrix{m, linalg.NewMatrix(1, 2), m}, Ctl: ctl{Trace: 4, Hop: 1}},
		&hardTrainMsg{Rows: [][]*linalg.Matrix{{m}, nil, {m, m}}},
		&bfDataMsg{Piece: c, Ctl: ctl{Last: true, Trace: 5, Hop: 1}},
		&easyWeightsMsg{Ws: []*linalg.Matrix{m, m}},
		&hardWeightsMsg{Ws: [][]*linalg.Matrix{{m}, {m}}},
		&beamMsg{Slab: c, GlobalBins: []int{1, 2}, Ctl: ctl{Trace: 6, Hop: 2}},
		&powerMsg{Slab: rc, Blk: cube.Block{Lo: 0, Hi: 4}, Ctl: ctl{Trace: 7, Hop: 3}},
	}
}

// TestGatheredFramesAreTheCopiedFrames: every message of the round-trip
// table and of largeCases leaves a Writer, through a loopback TCP
// connection and through a plain io.Writer, as exactly the bytes of
// copyFrame, so borrowing sample blocks changes nothing on the wire (the
// large cases are written in several pieces, so they did borrow). Read
// back one byte at a time and in halved reads, the stream decodes to the
// value a decode from memory gives, into a fresh message and into a warm
// one of the same kind and shape.
func TestGatheredFramesAreTheCopiedFrames(t *testing.T) {
	const kind = wire.Kind(1) // a dist data frame's kind; the bytes do not depend on it
	small := len(wireCases())
	for i, m := range append(wireCases(), largeCases()...) {
		want := copyFrame(t, kind, &msgFrame{m})
		tcp, plain, writes := writtenFrames(t, kind, &msgFrame{m})
		if !bytes.Equal(tcp, want) || !bytes.Equal(plain, want) {
			t.Fatalf("case %d (%T): the written frame differs from the copied one (tcp %v, plain writer %v)",
				i, m, bytes.Equal(tcp, want), bytes.Equal(plain, want))
		}
		if i >= small && writes < 2 && nativeLE() {
			t.Errorf("case %d (%T): written in %d piece, borrowing nothing", i, m, writes)
		}
		fromMemory := roundTrip(t, m)
		for _, slow := range []func(io.Reader) io.Reader{iotest.OneByteReader, iotest.HalfReader} {
			for _, into := range []any{nil, roundTrip(t, m)} {
				fr := wire.NewReader(slow(bytes.NewReader(want)))
				if k, _, err := fr.Next(); err != nil || k != kind {
					t.Fatalf("case %d: header %v, %v", i, k, err)
				}
				got := msgFrame{into}
				if _, err := fr.Decode(&got); err != nil {
					t.Fatalf("case %d (%T): streamed decode: %v", i, m, err)
				}
				if !sameBits(reflect.ValueOf(&got.m).Elem(), reflect.ValueOf(&fromMemory).Elem()) {
					t.Fatalf("case %d (%T), warm %v: the streamed decode differs from the decode from memory", i, m, into != nil)
				}
			}
		}
	}
}
