package pipeline

import (
	"bytes"
	"reflect"
	"testing"

	"pstap/internal/wire"
)

// FuzzDecodeMessage feeds arbitrary bytes to the nine-message decoder, as
// a dist link does with every data frame's body: any input is an error or
// a message, never a panic or a runaway allocation, and a message that
// decodes re-encodes to exactly its own bytes — the flat form is
// canonical, so nothing was lost or invented on the way in. A link decodes
// into the slot of an earlier message, so each input is also decoded into
// a warm slot holding each message of the round-trip table, of every kind
// and shape, and must give the fresh decode's value bit for bit. Seeds:
// every message of the round-trip table, whole and cut in half, plus a
// corrupted copy of each. Run it with
//
//	go test -run '^$' -fuzz FuzzDecodeMessage -fuzztime 10s ./internal/pipeline
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range wireCases() {
		var e wire.Enc
		if err := AppendMessage(&e, m); err != nil {
			f.Fatal(err)
		}
		b := e.Bytes()
		f.Add(b)
		f.Add(b[:len(b)/2])
		flipped := append([]byte(nil), b...)
		for i := len(flipped) / 4; i < len(flipped)/2; i++ {
			flipped[i] ^= 0xA5
		}
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		d := wire.NewDec(b)
		m, err := DecodeMessageInto(d, nil)
		if err != nil || d.End() != nil {
			return
		}
		var e wire.Enc
		if err := AppendMessage(&e, m); err != nil {
			t.Fatalf("re-encode %T: %v", m, err)
		}
		if !bytes.Equal(e.Bytes(), b) {
			t.Fatalf("%T re-encodes to %x, decoded from %x", m, e.Bytes(), b)
		}
		for _, w := range wireCases() {
			slot := roundTrip(t, w)
			d := wire.NewDec(b)
			got, err := DecodeMessageInto(d, slot)
			if err == nil {
				err = d.End()
			}
			if err != nil || !sameBits(reflect.ValueOf(&got).Elem(), reflect.ValueOf(&m).Elem()) {
				t.Fatalf("decoded into a slot holding %T: %+v (%v), fresh %+v", w, got, err, m)
			}
		}
	})
}
