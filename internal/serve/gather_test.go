package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"testing"
	"testing/iotest"

	"pstap/internal/cube"
	"pstap/internal/radar"
	"pstap/internal/stap"
	"pstap/internal/wire"
)

// copyFrame is v's frame as the copying encoder builds it, the reference
// a gathered frame must equal byte for byte: the header, then the body
// appended into one buffer by a zero Enc, every sample block copied in.
func copyFrame(tb testing.TB, v wire.Flattener) []byte {
	var e wire.Enc
	if err := v.AppendFlat(&e); err != nil {
		tb.Fatal(err)
	}
	hdr := []byte{wire.FormatVersion, byte(wire.Plain), 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[2:], uint32(len(e.Bytes())))
	return append(hdr, e.Bytes()...)
}

// writtenFrames returns v's frame as a Writer writes it through a
// loopback TCP connection (a writev when it gathers sample blocks) and
// through a plain io.Writer (a Write per piece).
func writtenFrames(tb testing.TB, v any) (tcp, plain []byte) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	sent := make(chan error, 1)
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			_, err = wire.NewWriter(c).WriteFrame(wire.Plain, v)
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
	var buf bytes.Buffer
	if _, err := wire.NewWriter(struct{ io.Writer }{&buf}).WriteFrame(wire.Plain, v); err != nil {
		tb.Fatal(err)
	}
	return tcp, buf.Bytes()
}

// TestGatheredRequestIsTheCopiedRequest: a Request of Small CPIs (64 KiB
// of samples each, which a Writer borrows) and a Response leave a Writer,
// through a loopback TCP connection and through a plain io.Writer, as
// exactly the bytes of copyFrame. Read back one byte at a time and in
// halved reads, each decodes to the value a decode from memory gives,
// into a fresh value and into a warm one that held the same message.
func TestGatheredRequestIsTheCopiedRequest(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	req := &Request{ID: 5, CPIs: []*cube.Cube{sc.GenerateCPI(0), nil, sc.GenerateCPI(1), {Data: []complex128{}}}, DeadlineMs: 9}
	resp := &Response{ID: 5, Status: StatusOK, Detections: [][]stap.Detection{{{Range: 1, Power: 2}}, nil, {}},
		QueueNs: 3, ServiceNs: 4, TraceFile: "t.json"}
	for _, c := range []struct {
		v    wire.Flattener
		into func() wire.FlatDecoder
	}{
		{req, func() wire.FlatDecoder { return new(Request) }},
		{resp, func() wire.FlatDecoder { return new(Response) }},
	} {
		want := copyFrame(t, c.v)
		tcp, plain := writtenFrames(t, c.v)
		if !bytes.Equal(tcp, want) || !bytes.Equal(plain, want) {
			t.Fatalf("%T: the written frame differs from the copied one (tcp %v, plain writer %v)",
				c.v, bytes.Equal(tcp, want), bytes.Equal(plain, want))
		}
		fromMemory := c.into()
		if d := wire.NewDec(want[6:]); fromMemory.DecodeFlat(d) != nil || d.End() != nil {
			t.Fatalf("%T: decode from memory: %v", c.v, d.End())
		}
		for _, slow := range []func(io.Reader) io.Reader{iotest.OneByteReader, iotest.HalfReader} {
			warm := c.into()
			if err := wire.ReadFrame(bytes.NewReader(want), warm); err != nil {
				t.Fatal(err)
			}
			for _, got := range []wire.FlatDecoder{c.into(), warm} {
				if err := wire.ReadFrame(slow(bytes.NewReader(want)), got); err != nil {
					t.Fatalf("%T: streamed decode: %v", c.v, err)
				}
				if !reflect.DeepEqual(got, fromMemory) {
					t.Fatalf("%T: the streamed decode differs from the decode from memory", c.v)
				}
			}
		}
	}
}
