// Package wire is the repository's single frame codec. Two planes share
// it: the stapd job protocol (internal/serve) and the distributed
// pipeline links (internal/dist).
//
// One frame is a 6-byte header — the format version, the frame's kind
// and the body length as a big-endian uint32 — followed by the body, so
// frames decode independently and a receiver resynchronizes at every
// frame boundary. The version byte comes first so that any build can
// read it: a frame from another build is refused with a *VersionError
// naming both versions before its body is looked at. The kind byte is
// opaque here: the writer names what the body is (a dist link frame's
// kind, Plain elsewhere), so a receiver can route or refuse a frame on
// its header alone.
//
// There is one codec, the flat form of flat.go: cube.Cube,
// cube.RealCube, linalg.Matrix, []stap.Detection and every message built
// from them as fixed-width fields, samples as little-endian IEEE-754 bit
// patterns, so every bit survives and a split replica stays bit-exact.
//
// A Writer encodes every frame into one buffer it reuses, except that on
// a little-endian host (nativeLE), whose memory holds samples in their
// flat form, it borrows a block of samples of at least gatherMin bytes
// from the value being written instead of copying it, and writes the
// buffer and the borrowed blocks in order (writev on a TCP connection).
// A Reader streams a body: its fields come through a read-ahead of at
// most aheadBytes, and a block of samples is read from the stream
// straight into the memory of the value it decodes into when that memory
// was made for the block's count (a warm receiver: stapd's request slots,
// a dist link's per-edge message slots). Only what the read-ahead already
// holds at a block's two ends is copied once more, so for a large block
// the kernel's copy on each side is all but the only one. Decoding into
// values the receiver owns and reuses (the …Into forms and GetSliceInto),
// a warm receiver allocates nothing. Decoded values never alias the
// stream's buffers. WriteFrame/ReadFrame are the one-shot forms. A
// receiver can also drop a body it refuses through a small fixed buffer
// (Skip).
//
// Every decoding path is hardened against corrupt or truncated input: it
// returns a descriptive error, never panics, refuses a frame whose
// declared length exceeds MaxFrameBytes, and refuses any count inside a
// flat body that the body's remaining bytes cannot hold. A header that
// overstates its length drives no allocation either: what a decode makes
// for bytes that are still to come grows only as they arrive.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// MaxFrameBytes bounds one frame's body (1 GiB). A length above it is
// treated as corruption instead of a request to allocate.
const MaxFrameBytes = 1 << 30

// FormatVersion is the frame format this build speaks, the first byte of
// every frame. Bump it whenever a frame's bytes change meaning — a flat
// layout, a dist frame kind's fields — so two builds refuse each other at
// the first frame instead of mis-decoding. A bump also re-stamps the first
// byte of every checked-in fuzz seed under testdata/fuzz, or the seeds stop
// at the header check (TestFuzzSeedsSpeakThisVersion).
const FormatVersion = 6

// headerBytes is the frame header: version, kind, uint32 body length.
const headerBytes = 6

// Kind is the header's second byte: what the body is, as its writer
// names it. This package only carries it.
type Kind byte

// Plain is the kind of every frame on a connection that carries one kind
// of frame: stapd's job protocol and the one-shot WriteFrame/ReadFrame.
const Plain Kind = 'f'

// VersionError is a frame from a build that speaks another format
// version.
type VersionError struct{ Got, Want byte }

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: peer speaks frame format version %d, this build speaks format version %d (stapd, stapnode and clients must be the same build)", e.Got, e.Want)
}

// FrameTiming is the measured cost of one frame codec operation: IONs
// the time spent in socket I/O (the write of the whole frame on the send
// side; on the receive side the reads of the body that went to the
// stream, not the header wait, which between frames is idle time),
// CodecNs the rest of the operation, Bytes the frame's total size on the
// wire including the header. Samples read straight into the receiver's
// memory are read time, not decode time. The distributed transport feeds
// these into the wire-tax accounting (obs.WireEvent).
type FrameTiming struct {
	CodecNs int64
	IONs    int64
	Bytes   int64
}

// Writer writes frames to one stream through one buffer it reuses for
// every frame, plus the sample blocks it borrows (see Enc). It is not
// safe for concurrent use: callers serialize WriteFrame (a link's or
// connection's writer lock), which also keeps a frame written in several
// Write calls contiguous on the stream.
type Writer struct {
	w   io.Writer
	e   Enc         // its buffer is the frame buffer
	iov net.Buffers // the frame's pieces in order, reused
	out net.Buffers // iov as WriteTo consumes it
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w, e: Enc{gather: true}} }

// WriteFrame encodes v in its flat form (see flat.go) and writes it as
// one frame of kind k, returning the measured encode and write costs. A
// frame that borrowed sample blocks leaves as one net.Buffers write:
// writev on a TCP connection, ordered Write calls on another stream.
// Either way the borrowed memory is read before WriteFrame returns and
// is not kept.
func (fw *Writer) WriteFrame(k Kind, v any) (FrameTiming, error) {
	var t FrameTiming
	defer fw.forget()
	encStart := time.Now()
	e := &fw.e
	e.b = append(e.b[:0], FormatVersion, byte(k), 0, 0, 0, 0)
	if err := appendFlat(e, v); err != nil {
		return t, fmt.Errorf("wire: encode frame: %w", err)
	}
	n := e.size() - headerBytes
	if n > MaxFrameBytes {
		return t, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	binary.BigEndian.PutUint32(e.b[2:headerBytes], uint32(n))
	t.Bytes = int64(headerBytes + n)
	fw.iov = e.pieces(fw.iov)
	fw.out = fw.iov
	t.CodecNs = time.Since(encStart).Nanoseconds()
	ioStart := time.Now()
	var err error
	if len(fw.out) == 1 {
		_, err = fw.w.Write(e.b)
	} else {
		_, err = fw.out.WriteTo(fw.w)
	}
	if err != nil {
		return t, fmt.Errorf("wire: write frame: %w", err)
	}
	t.IONs = time.Since(ioStart).Nanoseconds()
	return t, nil
}

// forget drops the Writer's references to the memory a frame borrowed,
// so it pins no payload between frames.
func (fw *Writer) forget() {
	clear(fw.e.lent)
	fw.e.lent = fw.e.lent[:0]
	clear(fw.iov)
	fw.iov = fw.iov[:0]
}

// aheadBytes bounds the read-ahead a Reader reads a body's fields
// through: 64 KiB, like a dist link's read buffer, so a body up to that
// size is one read. Of a larger sample block the read-ahead holds at most
// the start and the end, which are copied once more on their way to the
// value.
const aheadBytes = 64 << 10

// Reader reads frames from one stream. One goroutine owns it: Next
// announces a frame, Decode reads and decodes that frame's body.
type Reader struct {
	r io.Reader
	n int // body length of the announced frame
	// The header and the decoder live in the Reader, so that reading a
	// frame allocates neither.
	hdr [headerBytes]byte
	dec Dec
	// buffered is r itself when the caller buffers the stream, and its
	// buffer is the read-ahead; else the first Decode makes own, a
	// read-ahead of at most aheadBytes over lim, which ends each body
	// at the frame's end.
	buffered *bufio.Reader
	own      *bufio.Reader
	lim      io.LimitedReader
}

// NewReader returns a Reader on r. On a *bufio.Reader it reads bodies
// through that reader's buffer, which reads ahead across frames (a dist
// link: a header and a small body arrive in one read). On any other
// stream it reads exactly one frame's bytes per frame, so a connection
// read directly can change hands between frames; its read-ahead is
// allocated by the first Decode, so a reader that only announces frames
// (Next) and drops their bodies (Skip) holds none.
func NewReader(r io.Reader) *Reader {
	fr := &Reader{r: r}
	fr.buffered, _ = r.(*bufio.Reader)
	return fr
}

// Next blocks until the next frame's header has arrived and returns its
// kind and body length, so the caller can refuse the frame before its
// body is read. It returns io.EOF — and only io.EOF — when the stream
// ends cleanly at a frame boundary; a frame of another format version is
// a *VersionError.
func (fr *Reader) Next() (Kind, int, error) {
	hdr := fr.hdr[:]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		if err == io.EOF {
			return 0, 0, io.EOF
		}
		return 0, 0, fmt.Errorf("wire: read frame header: %w", err)
	}
	if hdr[0] != FormatVersion {
		return 0, 0, &VersionError{Got: hdr[0], Want: FormatVersion}
	}
	n := binary.BigEndian.Uint32(hdr[2:])
	if n > MaxFrameBytes {
		return 0, 0, fmt.Errorf("wire: frame length %d exceeds limit %d (corrupt header?)", n, MaxFrameBytes)
	}
	fr.n = int(n)
	return Kind(hdr[1]), fr.n, nil
}

// Decode reads the body of the frame Next announced and decodes it into
// v, a pointer to one of the flat types or a FlatDecoder, as the bytes
// arrive. Truncation and corrupt content are descriptive errors, never
// panics; after one the stream is not at a frame boundary, and the
// caller drops it.
func (fr *Reader) Decode(v any) (t FrameTiming, err error) {
	t.Bytes = int64(headerBytes + fr.n)
	start := time.Now()
	br := fr.buffered
	if br == nil {
		fr.lim = io.LimitedReader{R: fr.r, N: int64(fr.n)}
		if size := min(fr.n, aheadBytes); fr.own == nil || fr.own.Size() < size {
			fr.own = bufio.NewReaderSize(&fr.lim, size)
		} else {
			fr.own.Reset(&fr.lim)
		}
		br = fr.own
	}
	d := &fr.dec
	*d = Dec{br: br, left: fr.n}
	err = decodeFlat(d, v)
	br.Discard(d.held)
	t.IONs = d.ioNs
	t.CodecNs = time.Since(start).Nanoseconds() - t.IONs
	if d.cut != nil {
		err = fmt.Errorf("wire: frame truncated (want %d bytes): %w", fr.n, d.cut)
	}
	*d = Dec{}
	return t, err
}

// Skip reads the body of the frame Next announced without keeping it:
// the first len(head) bytes (fewer when the body is shorter) land in
// head and the rest is dropped through a small fixed buffer, so a
// refused frame leaves the stream at the next frame boundary having
// held nothing of the body. It returns how many bytes head received.
func (fr *Reader) Skip(head []byte) (int, error) {
	k, err := io.ReadFull(fr.r, head[:min(len(head), fr.n)])
	if err == nil {
		_, err = io.CopyN(io.Discard, fr.r, int64(fr.n-k))
	}
	if err != nil {
		return k, fmt.Errorf("wire: frame truncated (want %d bytes): %w", fr.n, err)
	}
	return k, nil
}

// ReadFrame is Next then Decode for a Plain frame: it reads the next
// frame into v, refusing a frame of any other kind on its header.
func (fr *Reader) ReadFrame(v any) (FrameTiming, error) {
	k, _, err := fr.Next()
	if err != nil {
		return FrameTiming{}, err
	}
	if k != Plain {
		return FrameTiming{}, fmt.Errorf("wire: frame kind %#x where plain frames are expected (corrupt header?)", byte(k))
	}
	return fr.Decode(v)
}

// ReadFrame reads one Plain frame from r through a fresh Reader and
// decodes it into v (a pointer). It returns io.EOF — and only io.EOF —
// when the stream ends cleanly at a frame boundary. A receiver that
// reads many frames keeps a Reader instead.
func ReadFrame(r io.Reader, v any) error {
	_, err := NewReader(r).ReadFrame(v)
	return err
}

// WriteFrame writes v to w as one Plain frame through a fresh Writer.
// Concurrent writers interleave only at frame boundaries when the callers
// serialize above this layer.
func WriteFrame(w io.Writer, v any) error {
	_, err := NewWriter(w).WriteFrame(Plain, v)
	return err
}

// lingerTimeout bounds how long CloseAfterReply waits for the peer.
const lingerTimeout = time.Second

// CloseAfterReply closes conn without losing a reply just written to it.
// Closing a TCP socket whose input is unread sends a reset, and the reset
// can discard a reply the peer has not read yet — as when a frame is
// refused on its header and its body is left unread. So the write side is
// half-closed first and the input discarded until the peer closes too, or
// for at most lingerTimeout.
func CloseAfterReply(conn net.Conn) {
	if hc, ok := conn.(interface{ CloseWrite() error }); ok && hc.CloseWrite() == nil {
		conn.SetReadDeadline(time.Now().Add(lingerTimeout))
		io.Copy(io.Discard, conn)
	}
	conn.Close()
}
