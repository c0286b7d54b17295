package wire

import (
	"bytes"
	"testing"

	"pstap/internal/cube"
)

// FuzzReadFrame feeds arbitrary bytes to ReadFrame into a cube, a
// message of all four payload types and a small message, the way a
// receiver that does not trust its peer would: any input is an error or a
// value, never a panic or a runaway allocation. A frame that decodes
// re-encodes to exactly its own bytes — the flat form is canonical, so
// nothing was lost or invented on the way in. Run it with
//
//	go test -run '^$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/wire
func FuzzReadFrame(f *testing.F) {
	for _, b := range flatCorpus(f) {
		f.Add(b)
	}
	var small bytes.Buffer
	if err := WriteFrame(&small, &msg{ID: 7, Body: []float64{1, -0.5}}); err != nil {
		f.Fatal(err)
	}
	f.Add(small.Bytes())
	f.Add([]byte{1, 2, 3})                                                 // truncated header
	f.Add(header(FormatVersion, Plain, MaxFrameBytes+1))                   // oversized length
	f.Add(header(FormatVersion+1, Plain, 0))                               // another build
	f.Add(header(FormatVersion, 'x', 0))                                   // another kind
	f.Add(append(header(FormatVersion, Plain, 4), 0xff, 0xfe, 0xfd, 0xfc)) // garbage body
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, v := range []any{&cube.Cube{}, &payload{}, &msg{}} {
			if ReadFrame(bytes.NewReader(b), v) != nil {
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
