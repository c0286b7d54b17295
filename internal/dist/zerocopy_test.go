package dist

import (
	"net"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"pstap/internal/cube"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
)

// mediumPiece is a beamforming data message carrying one Doppler-major
// piece of radar.Medium(), what each of A10's two Doppler workers sends
// the hard beamformer per CPI (0.9 MB of samples).
func mediumPiece(tb testing.TB) any {
	p := radar.Medium()
	c := cube.New(radar.BeamformInOrder, p.Nhard, p.K/2, 2*p.J)
	for i := range c.Data {
		c.Data[i] = complex(float64(i), -float64(i))
	}
	m := cubeMessage(tb, kindBFPiece, c)
	if pieceOf(m) == nil {
		tb.Fatalf("%T carries no piece", m)
	}
	return m
}

// pieceOf returns the cube of a beamforming data message (nil for any
// other message).
func pieceOf(m any) *cube.Cube {
	v := reflect.ValueOf(m)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		return nil
	}
	f := v.Elem().FieldByName("Piece")
	if !f.IsValid() {
		return nil
	}
	c, _ := f.Interface().(*cube.Cube)
	return c
}

// pieceTag is the tag the test pieces travel under: CPI 0 of stream 0.
// Slots are kept per stream, whichever stream it is.
const pieceTag = 0

// linkPair returns the two ends of a link over a and b the way a session
// wires them: tx sends on a as member 0 to member 1, and rx reads b as
// member 1 from member 0, decoding data frames into per-edge slots of the
// default window's depth.
func linkPair(tb testing.TB, a, b net.Conn) (tx, rx *link) {
	tb.Cleanup(func() { a.Close(); b.Close() })
	tx = newLink(1, "member 1", a, nil, 0)
	rx = newLink(0, "member 0", b, &edgeSlots{depth: pipeline.RingDepth(0), owners: []int{0, 1}, from: 0, to: 1,
		rings: make(map[edge]*edgeRing)}, 0)
	return tx, rx
}

// watchedConn counts the bytes its writes take from, and its reads put
// into, the memory it watches. It hides the connection's writev, so a
// gathered frame reaches it as one Write per piece.
type watchedConn struct {
	net.Conn
	watch       []byte
	wrote, read int
}

func (c *watchedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if within(p, c.watch) {
		c.wrote += n
	}
	return n, err
}

func (c *watchedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if within(p, c.watch) {
		c.read += n
	}
	return n, err
}

// within reports whether p starts inside mem.
func within(p, mem []byte) bool {
	if len(p) == 0 || len(mem) == 0 {
		return false
	}
	at, lo := uintptr(unsafe.Pointer(&p[0])), uintptr(unsafe.Pointer(&mem[0]))
	return at >= lo && at < lo+uintptr(len(mem))
}

// bytesOf is the memory of samples as bytes.
func bytesOf(v []complex128) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 16*len(v))
}

// receive reads one frame from rx the way the Transport's reader loop
// does, into f, which holds rx's slots.
func receive(tb testing.TB, rx *link, f *frame) {
	k, _, err := rx.fr.Next()
	if err != nil {
		tb.Fatal(err)
	}
	f.Kind = frameKind(k)
	if _, err := rx.fr.Decode(f); err != nil {
		tb.Fatal(err)
	}
}

// TestWarmLinkCopiesNoSamples carries Medium pieces over a warm loopback
// link. Every frame arrives bit for bit into the slot the edge's message
// depth frames earlier was decoded into (the samples share its backing
// array), and a frame allocates nothing on either end. Over watched
// connections, the sender's writes take every sample from the message's
// own memory, and the receiver's reads put the samples straight into the
// slot, all but what its read-ahead holds at the block's two ends: no
// other user-space copy on either side.
func TestWarmLinkCopiesNoSamples(t *testing.T) {
	for _, watched := range []bool{false, true} {
		a, b := tcpPair(t)
		wa, wb := &watchedConn{Conn: a}, &watchedConn{Conn: b}
		tx, rx := linkPair(t, a, b)
		if watched {
			tx, rx = linkPair(t, wa, wb)
		}
		msg := mediumPiece(t)
		sent := pieceOf(msg)
		samples := len(bytesOf(sent.Data))
		depth := rx.in.depth
		next := make(chan struct{})
		errs := make(chan error)
		go func() {
			for range next {
				errs <- tx.sendData(0, 1, pieceTag, msg, nil, nil)
			}
		}()
		f := frame{in: rx.in}
		var arrived [][]complex128
		frameOnce := func() {
			k := len(arrived)
			sent.Data[0] = complex(float64(k), 0) // tell the frames apart
			if watched && k >= depth {
				wa.watch, wa.wrote = bytesOf(sent.Data), 0
				wb.watch, wb.read = bytesOf(arrived[k-depth]), 0
			}
			next <- struct{}{}
			receive(t, rx, &f)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			got := pieceOf(f.Data)
			if got == nil || !slices.Equal(got.Data, sent.Data) || got.Dim != sent.Dim || got.Axes != sent.Axes {
				t.Fatalf("frame %d: the piece did not arrive as sent", k)
			}
			if k >= depth && &got.Data[0] != &arrived[k-depth][0] {
				t.Fatalf("frame %d: samples decoded into new memory, not the slot of frame %d", k, k-depth)
			}
			if watched && k >= depth && (wa.wrote != samples || wb.read < samples-2*linkReadBuffer) {
				t.Fatalf("frame %d: of %d bytes of samples %d were written from the message and %d read into the slot; want all and all but %d",
					k, samples, wa.wrote, wb.read, 2*linkReadBuffer)
			}
			arrived = append(arrived, got.Data)
		}
		for range depth {
			frameOnce() // fill the edge's slots
		}
		const runs = 3 * 9
		arrived = slices.Grow(arrived, runs+1) // no growth inside the measurement
		allocs := testing.AllocsPerRun(runs, frameOnce)
		close(next)
		if !raceEnabled && allocs != 0 { // under -race the counts are the race runtime's
			t.Errorf("watched %v: a warm link frame allocates %.1f times on its two ends", watched, allocs)
		}
	}
}

// BenchmarkLinkMediumPieces sends one Medium piece frame over a warm
// loopback TCP link and reads it into the edge's slots: the writer's
// gathered write, the socket both ways, and the streamed decode. Run it
// with -benchmem.
func BenchmarkLinkMediumPieces(b *testing.B) {
	c1, c2 := tcpPair(b)
	tx, rx := linkPair(b, c1, c2)
	msg := mediumPiece(b)
	errs := make(chan error, 1)
	send := func(n int) {
		go func() {
			for i := 0; i < n; i++ {
				if err := tx.sendData(0, 1, pieceTag, msg, nil, nil); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	f := frame{in: rx.in}
	warm := rx.in.depth
	send(warm)
	for range warm {
		receive(b, rx, &f)
	}
	if err := <-errs; err != nil {
		b.Fatal(err)
	}
	b.SetBytes(16 * int64(len(pieceOf(msg).Data)))
	b.ReportAllocs()
	b.ResetTimer()
	send(b.N)
	for i := 0; i < b.N; i++ {
		receive(b, rx, &f)
	}
	if err := <-errs; err != nil {
		b.Fatal(err)
	}
}
