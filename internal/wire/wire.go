// Package wire is the repository's single frame codec. Two planes share
// it: the stapd job protocol (internal/serve) and the distributed
// pipeline links (internal/dist).
//
// One frame is a 6-byte header — the format version, the body's codec
// and the body length as a big-endian uint32 — followed by the body, so
// frames decode independently and a receiver resynchronizes at every
// frame boundary. The version byte comes first so that any build can
// read it: a frame from another build is refused with a *VersionError
// naming both versions before its body is looked at.
//
// A body has one of two codecs. The data — cube.Cube, cube.RealCube,
// linalg.Matrix, []stap.Detection and the messages built from them (the
// pipeline's inter-task messages, serve.Request/Response) — is flat: a
// fixed header per value and its complex128/float64 samples as
// little-endian IEEE-754 bit patterns (see flat.go), so every bit
// survives and a split replica stays bit-exact. Everything else — the
// rare control frames of the dist link protocol — is a self-contained
// gob stream.
//
// A Writer and a Reader own one reusable buffer each, so a long-lived
// connection encodes into and reads through the same memory frame after
// frame; WriteFrame/ReadFrame are the one-shot forms. A Reader's buffer
// never shrinks, so it suits a link whose frames stay alike in size (a
// dist link); a connection that idles between frames of any size (stapd's
// job intake) reads one-shot. Decoded values never alias a Reader's
// buffer.
//
// Every decoding path is hardened against corrupt or truncated input: it
// returns a descriptive error, never panics, refuses a frame whose
// declared length exceeds MaxFrameBytes, and refuses any count inside a
// flat body that the body's remaining bytes cannot hold — a corrupt
// prefix must not drive an allocation.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
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
// layout, a control frame's fields — so two builds refuse each other at
// the first frame instead of mis-decoding.
const FormatVersion = 1

// headerBytes is the frame header: version, codec, uint32 body length.
const headerBytes = 6

// Codec is how a frame's body is encoded, the header's second byte.
type Codec byte

const (
	// Gob bodies are one self-contained gob stream.
	Gob Codec = 'g'
	// Flat bodies are the fixed-layout form of flat.go.
	Flat Codec = 'f'
)

// VersionError is a frame from a build that speaks another format
// version.
type VersionError struct{ Got, Want byte }

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: peer speaks frame format version %d, this build speaks format version %d (stapd, stapnode and clients must be the same build)", e.Got, e.Want)
}

// Guard converts a decoding panic (gob on adversarial bytes) into an
// error, so no corrupt input can crash a caller. Use it as
//
//	defer wire.Guard(&err, "decode thing")
//
// around any gob decode of untrusted bytes.
func Guard(err *error, what string) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("wire: %s: malformed input: %v", what, r)
	}
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
	w   io.Writer
	buf []byte
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteFrame encodes v — flat when it has a flat form, gob otherwise —
// and writes it as one frame in one Write call, returning the measured
// encode and write costs.
func (fw *Writer) WriteFrame(v any) (FrameTiming, error) {
	var t FrameTiming
	b := append(fw.buf[:0], FormatVersion, byte(Flat), 0, 0, 0, 0)
	encStart := time.Now()
	e := Enc{b: b}
	flat, err := appendFlat(&e, v)
	b = e.b
	if !flat {
		b[1] = byte(Gob)
		buf := bytes.NewBuffer(b)
		err = gob.NewEncoder(buf).Encode(v)
		b = buf.Bytes()
	}
	fw.buf = b
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
	r     io.Reader
	buf   []byte
	codec Codec
	n     int // body length of the announced frame
}

// NewReader returns a Reader on r. It reads exactly one frame's bytes per
// frame, so a connection can change hands between frames.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next blocks until the next frame's header has arrived and returns its
// codec. It returns io.EOF — and only io.EOF — when the stream ends
// cleanly at a frame boundary; a frame of another format version is a
// *VersionError.
func (fr *Reader) Next() (Codec, error) {
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("wire: read frame header: %w", err)
	}
	if hdr[0] != FormatVersion {
		return 0, &VersionError{Got: hdr[0], Want: FormatVersion}
	}
	fr.codec = Codec(hdr[1])
	if fr.codec != Gob && fr.codec != Flat {
		return 0, fmt.Errorf("wire: unknown frame codec %#x (corrupt header?)", hdr[1])
	}
	n := binary.BigEndian.Uint32(hdr[2:])
	if n > MaxFrameBytes {
		return 0, fmt.Errorf("wire: frame length %d exceeds limit %d (corrupt header?)", n, MaxFrameBytes)
	}
	fr.n = int(n)
	return fr.codec, nil
}

// Decode reads the body of the frame Next announced and decodes it into
// v, a pointer: a flat body into one of the flat types (or a
// FlatDecoder), a gob body into anything gob accepts. Truncation and
// corrupt content are descriptive errors, never panics.
func (fr *Reader) Decode(v any) (t FrameTiming, err error) {
	t.Bytes = int64(headerBytes + fr.n)
	ioStart := time.Now()
	body, err := fr.readBody()
	if err != nil {
		return t, fmt.Errorf("wire: frame truncated (want %d bytes): %w", fr.n, err)
	}
	t.IONs = time.Since(ioStart).Nanoseconds()
	decStart := time.Now()
	if fr.codec == Flat {
		err = decodeFlat(body, v)
	} else {
		err = decodeGob(body, v)
	}
	if err != nil {
		return t, err
	}
	t.CodecNs = time.Since(decStart).Nanoseconds()
	return t, nil
}

// readBody reads the announced body into the reused buffer. The buffer
// grows only as bytes arrive, doubling from 64 KiB, so a header that
// overstates its length costs no more memory than the bytes that came.
func (fr *Reader) readBody() ([]byte, error) {
	b := fr.buf[:0]
	for len(b) < fr.n {
		step := min(fr.n-len(b), cap(b)-len(b))
		if step == 0 {
			step = min(fr.n-len(b), max(len(b), 64<<10))
			b = slices.Grow(b, step)
		}
		k, err := io.ReadFull(fr.r, b[len(b):len(b)+step])
		b = b[:len(b)+k]
		if err != nil {
			fr.buf = b
			return nil, err
		}
	}
	fr.buf = b
	return b, nil
}

// decodeGob decodes one gob body into v.
func decodeGob(body []byte, v any) (err error) {
	defer Guard(&err, "decode frame")
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
		return fmt.Errorf("wire: decode frame: %w", err)
	}
	return nil
}

// ReadFrame is Next then Decode: it reads the next frame into v.
func (fr *Reader) ReadFrame(v any) (FrameTiming, error) {
	if _, err := fr.Next(); err != nil {
		return FrameTiming{}, err
	}
	return fr.Decode(v)
}

// ReadFrame reads one frame from r through a fresh buffer and decodes it
// into v (a pointer). It returns io.EOF — and only io.EOF — when the
// stream ends cleanly at a frame boundary.
func ReadFrame(r io.Reader, v any) error {
	_, err := NewReader(r).ReadFrame(v)
	return err
}

// WriteFrame writes v to w as one frame through a fresh buffer, in one
// Write call so concurrent writers interleave only at frame boundaries
// when the callers serialize above this layer.
func WriteFrame(w io.Writer, v any) error {
	_, err := NewWriter(w).WriteFrame(v)
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
