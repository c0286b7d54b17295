package pipeline

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/linalg"
	"pstap/internal/mp"
	"pstap/internal/radar"
	"pstap/internal/stap"
	"pstap/internal/wire"
)

// roundTrip ships m through the flat form — exactly how a dist data frame
// carries inter-task messages — and returns the decoded concrete value.
func roundTrip(t *testing.T, m any) any {
	t.Helper()
	var e wire.Enc
	if err := AppendMessage(&e, m); err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	d := wire.NewDec(e.Bytes())
	got, err := DecodeMessageInto(d, nil)
	if err == nil {
		err = d.End()
	}
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	return got
}

// sameBits is reflect.DeepEqual with floats compared by their bit
// patterns (NaN payloads, −0 and ±Inf included) and nil slices distinct
// from empty ones.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Complex128:
		x, y := a.Complex(), b.Complex()
		return math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
			math.Float64bits(imag(x)) == math.Float64bits(imag(y))
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

func testCube() *cube.Cube {
	c := cube.New(cube.Order{cube.Range, cube.Channel, cube.Pulse}, 2, 3, 2)
	for i := range c.Data {
		c.Data[i] = complex(float64(i), -float64(i))
	}
	return c
}

// oddFloats are the values a value-comparing codec would lose.
var oddFloats = []float64{math.Float64frombits(0x7ff8_0000_dead_beef), math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}

// wireCases is one or more instances of every inter-task message, with
// nil slabs, nil and empty slices, and samples a value-comparing codec
// would lose (NaN payloads, −0, ±Inf).
func wireCases() []any {
	m := linalg.NewMatrix(2, 2)
	m.Data[0] = complex(oddFloats[0], oddFloats[1])
	m.Data[3] = complex(oddFloats[2], oddFloats[3])
	rc := cube.NewReal(cube.Order{cube.Beam, cube.Doppler, cube.Range}, 1, 2, 2)
	copy(rc.Data, oddFloats)
	odd := testCube()
	odd.Data[1] = complex(oddFloats[1], oddFloats[0])
	short := testCube()
	short.Data = short.Data[:3] // Dim and Data disagree: crosses as it is
	dets := []stap.Detection{
		{Range: 3, DopplerBin: 4, Beam: 2, Power: 5.5, Threshold: 1.5},
		{Range: -1, DopplerBin: 1 << 40, Beam: 0, Power: oddFloats[0], Threshold: oddFloats[3]},
	}
	return []any{
		nil, // a droppayload fault's payload
		&rawMsg{Slab: testCube(), Ctl: ctl{Reset: true, Trace: 0xdeadbeefcafe, Hop: 0}},
		&rawMsg{Slab: odd, Ctl: ctl{Reset: true, EOF: true, Trace: math.MaxUint64, Hop: 255}},
		&rawMsg{Ctl: ctl{EOF: true}}, // nil Slab: the EOF control message
		&rawMsg{Slab: testCube(), Ctl: ctl{Last: true, Trace: 8}},
		&rawMsg{Slab: testCube(), Ctl: ctl{Reset: true, Last: true, Trace: 9}},
		&rawMsg{Slab: short},
		&rawMsg{Slab: &cube.Cube{Dim: [3]int{0, 4, 4}}}, // nil Data
		&rawMsg{Slab: &cube.Cube{Data: []complex128{}}}, // empty Data
		&easyTrainMsg{Rows: []*linalg.Matrix{m, nil, linalg.NewMatrix(0, 3)}, Ctl: ctl{Reset: true, Trace: 7, Hop: 1}},
		&easyTrainMsg{Ctl: ctl{Last: true, Trace: 8, Hop: 1}}, // a job's last CPI: flags, no rows
		&easyTrainMsg{Rows: []*linalg.Matrix{}},
		&easyTrainMsg{},
		&hardTrainMsg{Rows: [][]*linalg.Matrix{{m, m}, nil, {}}},
		&hardTrainMsg{},
		&hardTrainMsg{Ctl: ctl{Reset: true, Last: true, Trace: 9, Hop: 1}}, // a 1-CPI job
		&bfDataMsg{Piece: testCube(), Ctl: ctl{Trace: 1<<63 + 5, Hop: 1}},
		&bfDataMsg{Ctl: ctl{EOF: true}},
		&bfDataMsg{Piece: testCube(), Ctl: ctl{Last: true, Trace: 8, Hop: 1}},
		&easyWeightsMsg{Ws: []*linalg.Matrix{m}},
		&easyWeightsMsg{},
		&hardWeightsMsg{Ws: [][]*linalg.Matrix{{m}, {}}},
		&hardWeightsMsg{Ws: [][]*linalg.Matrix{}},
		&beamMsg{Slab: testCube(), GlobalBins: []int{0, 3, -5, math.MaxInt}, Ctl: ctl{Trace: 42, Hop: 2}},
		&beamMsg{GlobalBins: []int{}, Ctl: ctl{EOF: true}},
		&beamMsg{Slab: testCube(), GlobalBins: []int{7}, Ctl: ctl{Reset: true, Last: true, Trace: 9, Hop: 2}},
		&powerMsg{Slab: rc, Blk: cube.Block{Lo: 1, Hi: 2}, Ctl: ctl{Trace: 42, Hop: 3}},
		&powerMsg{Ctl: ctl{EOF: true}},
		&detMsg{Dets: dets, Ctl: ctl{Trace: 42, Hop: 4}},
		&detMsg{Dets: []stap.Detection{}},
		&detMsg{Ctl: ctl{EOF: true}},
	}
}

// TestWireRoundTrip checks every inter-task message survives the flat
// form as a structurally identical concrete value, bit for bit — the
// property that keeps a split replica bit-exact and keeps worker type
// assertions (msg.(*rawMsg) etc.) working on decoded traffic. Every
// message type declared in messages.go must appear in the table, so a
// type missing from either switch fails here.
func TestWireRoundTrip(t *testing.T) {
	covered := map[string]bool{}
	for _, want := range wireCases() {
		if want != nil {
			covered[reflect.TypeOf(want).Elem().Name()] = true
		}
		got := roundTrip(t, want)
		if !sameBits(reflect.ValueOf(&got).Elem(), reflect.ValueOf(&want).Elem()) {
			t.Errorf("%T: round-trip mismatch\n got %+v\nwant %+v", want, got, want)
		}
	}
	for _, name := range messageTypes(t) {
		if !covered[name] {
			t.Errorf("message type %s is not in the round-trip table", name)
		}
	}

	var e wire.Enc
	if err := AppendMessage(&e, struct{ Slab *cube.Cube }{}); err == nil {
		t.Error("a non-message type encoded without error")
	}
	if _, err := DecodeMessageInto(wire.NewDec([]byte{kindDet + 1}), nil); err == nil {
		t.Error("an unknown message kind decoded without error")
	}
}

// messageTypes lists the struct types messages.go declares whose names
// end in "Msg": the inter-task messages.
func messageTypes(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "messages.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok && strings.HasSuffix(ts.Name.Name, "Msg") {
			names = append(names, ts.Name.Name)
		}
		return true
	})
	if len(names) < 9 {
		t.Fatalf("found %d message types %v in messages.go, want at least the nine", len(names), names)
	}
	return names
}

// TestNoGobRegistration: the messages have one wire form, the flat one;
// registering them with gob would be a second.
func TestNoGobRegistration(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "gob.Register") {
			t.Errorf("%s calls gob.Register", name)
		}
	}
}

// TestWarmSlotDecodeAllocatesNothing: a dist link decodes each message
// into the slot of the message depth arrivals before it on the same edge,
// which on a warm link has the same kind and shape. Such a decode, of
// every kind of the round-trip table, allocates nothing.
func TestWarmSlotDecodeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are the race runtime's")
	}
	const runs = 20
	for _, m := range wireCases() {
		var e wire.Enc
		if err := AppendMessage(&e, m); err != nil {
			t.Fatal(err)
		}
		slot := roundTrip(t, m)
		decs := make([]*wire.Dec, runs+1) // AllocsPerRun warms up with one extra run
		for i := range decs {
			decs[i] = wire.NewDec(e.Bytes())
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			got, err := DecodeMessageInto(decs[next], slot)
			next++
			if err != nil || got != slot {
				t.Fatalf("%T: warm decode returned %p (%v), not its slot", m, got, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%T: a warm decode allocates %.1f times", m, allocs)
		}
	}
}

// TestMaxMessageBytesBoundsEveryMessage sends streams of Small jobs under
// several assignments and holds the flat size of every message sent to
// MaxMessageBytes — the bound a dist link refuses a longer data frame by.
func TestMaxMessageBytesBoundsEveryMessage(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	jobs, _ := serialJobs(sc, []int{1, 3, 4})
	for _, a := range []Assignment{NewAssignment(1, 1, 1, 1, 1, 1, 1), NewAssignment(2, 1, 2, 1, 1, 2, 1), NewAssignment(3, 2, 3, 2, 2, 3, 2)} {
		bound := MaxMessageBytes(sc.Params, a)
		world := mp.NewWorld(a.Total() + 1)
		var largest atomic.Int64
		world.SetSendHook(func(_, _, _ int, data any) (any, bool) {
			var e wire.Enc
			if err := AppendMessage(&e, data); err != nil {
				t.Error(err)
			}
			for n := int64(len(e.Bytes())); n > largest.Load(); {
				largest.CompareAndSwap(largest.Load(), n)
			}
			return data, false
		})
		st, err := NewHostedStream(StreamConfig{Scene: sc, Assign: a, CPITimeout: 5 * time.Second},
			Hosting{World: world, Driver: true, Tasks: func(int) bool { return true }})
		if err != nil {
			t.Fatal(err)
		}
		for _, cpis := range jobs {
			if _, err := st.ProcessJob(cpis); err != nil {
				t.Fatal(err)
			}
		}
		st.Close()
		t.Logf("%v: largest message %d bytes, bound %d", a, largest.Load(), bound)
		if largest.Load() > int64(bound) {
			t.Errorf("%v: a message of %d bytes, MaxMessageBytes %d", a, largest.Load(), bound)
		}
	}
}
