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
// A Writer and a Reader own one reusable buffer each, so a long-lived
// connection encodes into and reads through the same memory frame after
// frame; WriteFrame/ReadFrame are the one-shot forms. A Reader's buffer
// never shrinks, so it suits a link whose frames stay alike in size (a
// dist link, which also reads its connection through a bufio.Reader so
// that a header and a small body arrive in one read). A receiver that
// bounds its memory some other way reads each body into a buffer it owns
// instead (DecodeBuf: stapd reads every request into one slot of a pool
// sized by its admission bound), or drops a body it refuses through a
// small fixed buffer (Skip). Either decodes into values it owns and
// reuses (the …Into forms and GetSliceInto: stapd's request slots, a dist
// link's per-edge message slots), so a warm receiver allocates nothing.
// Decoded values never alias the body they were read from. On a
// little-endian host a block of samples moves between a value and a body
// with one copy, since its memory is its flat form; the element-by-element
// loops that define the form run elsewhere.
//
// Every decoding path is hardened against corrupt or truncated input: it
// returns a descriptive error, never panics, refuses a frame whose
// declared length exceeds MaxFrameBytes, and refuses any count inside a
// flat body that the body's remaining bytes cannot hold — a corrupt
// prefix must not drive an allocation.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
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
const FormatVersion = 4

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

// FrameTiming is the measured cost of one frame codec operation: CodecNs
// the encode or decode time, IONs the socket I/O time (the single write
// on the send side; the body read — not the header wait, which between
// frames is idle time — on the receive side), Bytes the frame's total
// size on the wire including the header. The distributed transport feeds
// these into the wire-tax accounting (obs.WireEvent).
type FrameTiming struct {
	CodecNs int64
	IONs    int64
	Bytes   int64
}

// Writer writes frames to one stream through one buffer it reuses for
// every frame. It is not safe for concurrent use: callers serialize
// WriteFrame (a link's or connection's writer lock).
type Writer struct {
	w io.Writer
	e Enc // its buffer is the frame buffer
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteFrame encodes v in its flat form (see flat.go) and writes it as
// one frame of kind k in one Write call, returning the measured encode
// and write costs.
func (fw *Writer) WriteFrame(k Kind, v any) (FrameTiming, error) {
	var t FrameTiming
	encStart := time.Now()
	fw.e.b = append(fw.e.b[:0], FormatVersion, byte(k), 0, 0, 0, 0)
	err := appendFlat(&fw.e, v)
	b := fw.e.b
	if err != nil {
		return t, fmt.Errorf("wire: encode frame: %w", err)
	}
	t.CodecNs = time.Since(encStart).Nanoseconds()
	n := len(b) - headerBytes
	if n > MaxFrameBytes {
		return t, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	binary.BigEndian.PutUint32(b[2:headerBytes], uint32(n))
	t.Bytes = int64(len(b))
	ioStart := time.Now()
	if _, err := fw.w.Write(b); err != nil {
		return t, fmt.Errorf("wire: write frame: %w", err)
	}
	t.IONs = time.Since(ioStart).Nanoseconds()
	return t, nil
}

// Reader reads frames from one stream into one buffer it reuses for
// every frame. One goroutine owns it: Next announces a frame, Decode
// reads and decodes that frame's body.
type Reader struct {
	r   io.Reader
	buf []byte
	n   int // body length of the announced frame
	// The header and the decoder live in the Reader, so that reading a
	// frame allocates neither.
	hdr [headerBytes]byte
	dec Dec
}

// NewReader returns a Reader on r. It reads exactly one frame's bytes per
// frame from r, so a connection read directly can change hands between
// frames; one read through a buffer (a bufio.Reader) cannot. Its own
// buffer is allocated by the first Decode; a reader that only announces
// frames (Next) and reads their bodies with DecodeBuf or Skip holds none.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

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

// Decode reads the body of the frame Next announced into the Reader's
// own buffer and decodes it into v, a pointer to one of the flat types or
// a FlatDecoder. Truncation and corrupt content are descriptive errors,
// never panics.
func (fr *Reader) Decode(v any) (FrameTiming, error) { return fr.DecodeBuf(&fr.buf, v) }

// DecodeBuf is Decode reading the body into *buf, a buffer the caller
// owns and keeps for its next frame: it is reused when its capacity
// holds the body and grows only as bytes arrive, doubling from 64 KiB,
// so a header that overstates its length costs no more memory than the
// bytes that came.
func (fr *Reader) DecodeBuf(buf *[]byte, v any) (t FrameTiming, err error) {
	t.Bytes = int64(headerBytes + fr.n)
	ioStart := time.Now()
	body, err := fr.readBody((*buf)[:0])
	*buf = body
	if err != nil {
		return t, fmt.Errorf("wire: frame truncated (want %d bytes): %w", fr.n, err)
	}
	t.IONs = time.Since(ioStart).Nanoseconds()
	decStart := time.Now()
	fr.dec = Dec{b: body}
	err = decodeFlat(&fr.dec, v)
	fr.dec = Dec{}
	if err != nil {
		return t, err
	}
	t.CodecNs = time.Since(decStart).Nanoseconds()
	return t, nil
}

// readBody reads the announced body into b, growing it only as bytes
// arrive. On error it returns what arrived.
func (fr *Reader) readBody(b []byte) ([]byte, error) {
	for len(b) < fr.n {
		step := min(fr.n-len(b), cap(b)-len(b))
		if step == 0 {
			step = min(fr.n-len(b), max(len(b), 64<<10))
			b = slices.Grow(b, step)
		}
		k, err := io.ReadFull(fr.r, b[len(b):len(b)+step])
		b = b[:len(b)+k]
		if err != nil {
			return b, err
		}
	}
	return b, nil
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

// ReadFrame reads one Plain frame from r through a fresh buffer and
// decodes it into v (a pointer). It returns io.EOF — and only io.EOF —
// when the stream ends cleanly at a frame boundary. A receiver that
// reads many frames keeps a Reader instead.
func ReadFrame(r io.Reader, v any) error {
	_, err := NewReader(r).ReadFrame(v)
	return err
}

// WriteFrame writes v to w as one Plain frame through a fresh buffer, in
// one Write call so concurrent writers interleave only at frame
// boundaries when the callers serialize above this layer.
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
