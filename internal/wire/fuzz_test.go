package wire

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pstap/internal/cube"
)

// FuzzReadFrame feeds arbitrary bytes to ReadFrame into a cube, a
// message of all four payload types and a small message, the way a
// receiver that does not trust its peer would: any input is an error or a
// value, never a panic or a runaway allocation, also when a count claims
// far more samples than follow or the stream ends inside a block. A frame that decodes
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
	f.Add(overstatedFrame())                                               // a 512 MiB count, 1 KiB of samples
	var large bytes.Buffer
	if err := WriteFrame(&large, cube.New(cube.Order{}, 64, 4, 16)); err != nil {
		f.Fatal(err)
	}
	f.Add(large.Bytes()[:large.Len()/2]) // truncated mid-block
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

// TestFuzzSeedsSpeakThisVersion holds every checked-in FuzzReadFrame seed
// to the current FormatVersion. A seed of an older version is refused at
// the header, so after a bump it would pass without ever reaching the body
// decoder it was kept to exercise.
func TestFuzzSeedsSpeakThisVersion(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzReadFrame", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzReadFrame seeds found (err %v)", err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-value []byte corpus file", name)
		}
		b, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(b) == 0 || b[0] != FormatVersion {
			t.Fatalf("%s: seed is not stamped with version %d; re-stamp its first byte", name, FormatVersion)
		}
		var ve *VersionError
		if err := ReadFrame(bytes.NewReader([]byte(b)), &msg{}); errors.As(err, &ve) {
			t.Fatalf("%s: refused at the header: %v", name, err)
		}
	}
}
