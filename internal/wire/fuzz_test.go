package wire

import (
	"bytes"
	"testing"

	"pstap/internal/cube"
)

// FuzzReadFrame feeds arbitrary bytes to ReadFrame, both codecs, into a
// cube, a message of all four payload types and a gob struct, the way a receiver that
// does not trust its peer would: any input is an error or a value, never
// a panic or a runaway allocation. A flat frame that decodes re-encodes
// to exactly its own bytes — the flat form is canonical, so nothing was
// lost or invented on the way in. Run it with
//
//	go test -run '^$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/wire
func FuzzReadFrame(f *testing.F) {
	for _, b := range flatCorpus(f) {
		f.Add(b)
	}
	var gobFrame bytes.Buffer
	if err := WriteFrame(&gobFrame, msg{ID: 7, Body: []float64{1, -0.5}}); err != nil {
		f.Fatal(err)
	}
	f.Add(gobFrame.Bytes())
	f.Add([]byte{1, 2, 3})                                               // truncated header
	f.Add(header(FormatVersion, Gob, MaxFrameBytes+1))                   // oversized length
	f.Add(header(FormatVersion+1, Flat, 0))                              // another build
	f.Add(append(header(FormatVersion, Gob, 4), 0xff, 0xfe, 0xfd, 0xfc)) // garbage gob
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, v := range []any{&cube.Cube{}, &payload{}, &msg{}} {
			if ReadFrame(bytes.NewReader(b), v) != nil || b[1] != byte(Flat) {
				continue
			}
			var again bytes.Buffer
			if err := WriteFrame(&again, v); err != nil {
				t.Fatalf("re-encode %T: %v", v, err)
			}
			if !bytes.HasPrefix(b, again.Bytes()) {
				t.Fatalf("%T re-encodes to %x, read from %x", v, again.Bytes(), b)
			}
		}
	})
}
