package dist

import (
	"bytes"
	"io"
	"testing"

	"pstap/internal/wire"
)

// FuzzLinkFrame feeds arbitrary bytes to a link's frame reader — the kind
// from the header, then the body into a frame of that kind — the way a
// node reads what any TCP peer sends it, checking the header against a
// Small session's bound. Seeds: at least one frame of each of the six
// kinds, which the seed loop checks, so a kind added or removed later
// cannot leave the corpus stale, and a data header claiming 512 MiB. Any input is an error or a
// frame, never a panic or a runaway allocation, and a frame that decodes
// re-encodes to exactly its own bytes: the flat form is canonical, so
// nothing was lost or invented on the way in. Run it with
//
//	go test -run '^$' -fuzz FuzzLinkFrame -fuzztime 10s ./internal/dist
func FuzzLinkFrame(f *testing.F) {
	seeded := make(map[frameKind]bool)
	for _, fr := range []frame{
		{Kind: frameHello, Session: "0123abcd", To: 2, Manifest: []byte("signed form"), Auth: []byte{1, 2, 3}},
		{Kind: frameHello, Session: "0123abcd", From: 2, To: 1, Auth: []byte{}},
		{Kind: frameData, Src: 1, Dst: 9, Tag: 3 << 20}, // a nil payload
		{Kind: framePing, Seq: 4},
		{Kind: framePong, Seq: 4, T: 1700000000000000000},
		{Kind: frameReady, ObsAddr: "[::]:7443"},
		{Kind: frameReady}, // a node without a telemetry listener
		{Kind: frameGoodbye, Reason: "doppler worker 0 panicked at CPI 2"},
		{Kind: frameGoodbye}, // an orderly teardown
	} {
		var b bytes.Buffer
		if err := writeFrame(&b, &fr); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
		seeded[fr.Kind] = true
	}
	// A data frame header claiming 512 MiB, refused before its body.
	f.Add([]byte{wire.FormatVersion, byte(frameData), 0x20, 0, 0, 0})
	for k := frameHello; k <= frameGoodbye; k++ {
		if !seeded[k] {
			f.Fatalf("no seed of frame kind %d", k)
		}
	}
	if err := writeFrame(io.Discard, &frame{Kind: frameGoodbye + 1}); err == nil {
		f.Fatal("frameGoodbye is not the last frame kind; seed the kinds after it")
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := readFrame(bytes.NewReader(b))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := writeFrame(&again, &fr); err != nil {
			t.Fatalf("re-encode %+v: %v", fr, err)
		}
		if !bytes.HasPrefix(b, again.Bytes()) {
			t.Fatalf("frame of kind %d re-encodes to %x, read from %x", fr.Kind, again.Bytes(), b)
		}
	})
}
