package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"
)

type msg struct {
	ID   uint64
	Body []float64
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := []msg{{1, []float64{1, 2, 3}}, {2, nil}, {3, []float64{-0.5}}}
	for _, m := range want {
		if err := WriteFrame(&buf, m); err != nil {
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
}

func TestReadFrameRejectsCorruptInput(t *testing.T) {
	// Truncated header: not clean EOF.
	var v msg
	if err := ReadFrame(bytes.NewReader([]byte{1, 2, 3}), &v); err == nil || err == io.EOF {
		t.Fatalf("truncated header: got %v", err)
	}

	// Oversized length prefix must be refused before allocating.
	var huge bytes.Buffer
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], MaxFrameBytes+1)
	huge.Write(hdr[:])
	if err := ReadFrame(&huge, &v); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized prefix: got %v", err)
	}

	// Truncated payload.
	var short bytes.Buffer
	if err := WriteFrame(&short, msg{ID: 7}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	b := short.Bytes()[:short.Len()-1]
	if err := ReadFrame(bytes.NewReader(b), &v); err == nil || err == io.EOF {
		t.Fatalf("truncated payload: got %v", err)
	}

	// Well-framed garbage gob bytes: error, not panic.
	var garbage bytes.Buffer
	binary.BigEndian.PutUint64(hdr[:], 4)
	garbage.Write(hdr[:])
	garbage.Write([]byte{0xff, 0xfe, 0xfd, 0xfc})
	if err := ReadFrame(&garbage, &v); err == nil || err == io.EOF {
		t.Fatalf("garbage payload: got %v", err)
	}
}

func TestTimedFramesMeasure(t *testing.T) {
	var buf bytes.Buffer
	m := msg{ID: 9, Body: make([]float64, 4096)}
	wt, err := WriteFrameTimed(&buf, m)
	if err != nil {
		t.Fatalf("WriteFrameTimed: %v", err)
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
	rt, err := ReadFrameTimed(&buf, &got)
	if err != nil {
		t.Fatalf("ReadFrameTimed: %v", err)
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

	// A timed read that hits clean EOF reports it exactly like ReadFrame.
	if _, err := ReadFrameTimed(&buf, &got); err != io.EOF {
		t.Fatalf("clean end: got %v, want io.EOF", err)
	}
}
