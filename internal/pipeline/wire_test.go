package pipeline

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"pstap/internal/cube"
	"pstap/internal/linalg"
	"pstap/internal/stap"
)

// roundTrip ships v through gob as an `any` payload — exactly how a
// transport frame carries inter-task messages — and returns the decoded
// concrete value.
func roundTrip(t *testing.T, v any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	var out any
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return out
}

func testCube(t *testing.T) *cube.Cube {
	t.Helper()
	c := cube.New(cube.Order{cube.Range, cube.Channel, cube.Pulse}, 2, 3, 2)
	for i := range c.Data {
		c.Data[i] = complex(float64(i), -float64(i))
	}
	return c
}

// TestWireRoundTrip checks every inter-task payload survives the wire as a
// structurally identical concrete value — the property that keeps a split
// replica bit-exact and keeps worker type assertions (msg.(rawMsg) etc.)
// working on decoded traffic.
func TestWireRoundTrip(t *testing.T) {
	RegisterWire()
	m := linalg.NewMatrix(2, 2)
	m.Data[0] = 1 + 2i
	m.Data[3] = -3i
	rc := cube.NewReal(cube.Order{cube.Beam, cube.Doppler, cube.Range}, 1, 2, 2)
	for i := range rc.Data {
		rc.Data[i] = float64(i) + 0.25
	}
	dets := []stap.Detection{{Range: 3, DopplerBin: 4, Beam: 2, Power: 5.5, Threshold: 1.5}}

	cases := []any{
		rawMsg{Slab: testCube(t), Ctl: ctl{Reset: true, Trace: 0xdeadbeefcafe, Hop: 0}},
		rawMsg{Ctl: ctl{EOF: true}}, // nil Slab: the EOF control frame
		easyTrainMsg{Rows: []*linalg.Matrix{m}, Ctl: ctl{Reset: true, Trace: 7, Hop: 1}},
		hardTrainMsg{Rows: [][]*linalg.Matrix{{m, m}}},
		bfDataMsg{Piece: testCube(t), Ctl: ctl{Trace: 1<<63 + 5, Hop: 1}},
		easyWeightsMsg{Ws: []*linalg.Matrix{m}},
		hardWeightsMsg{Ws: [][]*linalg.Matrix{{m}}},
		beamMsg{Slab: testCube(t), GlobalBins: []int{0, 3, 5}, Ctl: ctl{Trace: 42, Hop: 2}},
		powerMsg{Slab: rc, Blk: cube.Block{Lo: 1, Hi: 2}, Ctl: ctl{Trace: 42, Hop: 3}},
		detMsg{Dets: dets, Ctl: ctl{Trace: 42, Hop: 4}},
		detMsg{Ctl: ctl{EOF: true}},
	}
	for _, want := range cases {
		// The messages are plain data walked by the frame's own encoder; a
		// GobEncoder here would be the per-message shadow codec growing back.
		if _, ok := want.(gob.GobEncoder); ok {
			t.Errorf("%T implements gob.GobEncoder", want)
		}
		got := roundTrip(t, want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T: round-trip mismatch\n got %+v\nwant %+v", want, got, want)
		}
	}
}
