package dist

import (
	"bytes"
	"testing"
)

// FuzzLinkFrame feeds arbitrary bytes to a link's frame reader — the kind
// from the header, then the body into a frame of that kind — the way a
// node reads what any TCP peer sends it. Seeds: one frame of each of the
// nine kinds. Any input is an error or a frame, never a panic or a
// runaway allocation, and a frame that decodes re-encodes to exactly its
// own bytes: the flat form is canonical, so nothing was lost or invented
// on the way in. Run it with
//
//	go test -run '^$' -fuzz FuzzLinkFrame -fuzztime 10s ./internal/dist
func FuzzLinkFrame(f *testing.F) {
	for _, fr := range []frame{
		{Kind: frameHello, Session: "0123abcd", To: 2, Manifest: []byte("signed form"), Auth: []byte{1, 2, 3}},
		{Kind: frameHello, Session: "0123abcd", From: 2, To: 1, Auth: []byte{}},
		{Kind: frameData, Seq: 7, Src: 1, Dst: 9, Tag: 3 << 20, Deadline: -1}, // a nil payload
		{Kind: frameCredit, Credits: 32},
		{Kind: framePing, Seq: 4, Deadline: 1 << 62},
		{Kind: framePong, Seq: 4, T: 1700000000000000000},
		{Kind: frameBarrier, Gen: 2},
		{Kind: frameRelease, Gen: 2},
		{Kind: frameReady, ObsAddr: "[::]:7443"},
		{Kind: frameGoodbye, Reason: "doppler worker 0 panicked at CPI 2"},
	} {
		var b bytes.Buffer
		if err := writeFrame(&b, &fr); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
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
