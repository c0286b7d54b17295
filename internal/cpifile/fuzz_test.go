package cpifile

import (
	"bytes"
	"testing"
)

// FuzzRead holds Read to its contract on arbitrary bytes: a recording
// either decodes into a *File that validates, or Read returns an error —
// never a panic, never a file with a cube its shape does not describe.
// The seeds are the corrupt inputs of cpifile_test.go (garbage, truncated
// prefixes, flipped bytes) and one valid Small recording. CI runs it for
// 10 s; a failing input lands under testdata/fuzz/FuzzRead.
func FuzzRead(f *testing.F) {
	rec, _ := sampleFile(f, 1)
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add([]byte("not a gob stream"))
	for _, n := range []int{0, 1, 7, len(full) / 2, len(full) - 1} {
		f.Add(full[:n])
	}
	flipped := append([]byte(nil), full...)
	for i := len(flipped) / 4; i < len(flipped)/2; i++ {
		flipped[i] ^= 0xA5
	}
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		switch {
		case err != nil && got != nil:
			t.Fatalf("Read returned both a file and an error: %v", err)
		case err == nil && got == nil:
			t.Fatal("Read returned neither a file nor an error")
		case err == nil:
			if verr := got.Validate(); verr != nil {
				t.Fatalf("Read accepted a recording that does not validate: %v", verr)
			}
		}
	})
}
