package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"pstap/internal/cube"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/stap"
	"pstap/internal/wire"
)

// TestProtoRoundTrip: a Request and a Response with every field set cross
// the wire unchanged, nil and empty slices included. The field counts pin
// the flat form: a new field fails here until AppendFlat/DecodeFlat
// carry it.
func TestProtoRoundTrip(t *testing.T) {
	if n := reflect.TypeOf(Request{}).NumField(); n != 4 {
		t.Fatalf("Request has %d fields; give the new one a place in AppendFlat/DecodeFlat, then update this count", n)
	}
	if n := reflect.TypeOf(Response{}).NumField(); n != 8 {
		t.Fatalf("Response has %d fields; give the new one a place in AppendFlat/DecodeFlat, then update this count", n)
	}
	sc := radar.DefaultScene(radar.Small())
	reqs := []*Request{
		{ID: 1 << 63, CPIs: []*cube.Cube{sc.GenerateCPI(0), nil, {Data: []complex128{}}}, Trace: true, DeadlineMs: -3},
		{CPIs: []*cube.Cube{}},
		{},
	}
	resps := []*Response{
		{
			ID:           9,
			Status:       StatusDeadlineExceeded,
			RetryAfterMs: 250,
			Err:          "naïve ✓",
			Detections:   [][]stap.Detection{{{Range: 1, DopplerBin: 2, Beam: 3, Power: 4.5, Threshold: -0.25}}, nil, {}},
			QueueNs:      11,
			ServiceNs:    12,
			TraceFile:    "/t/job000001.trace.json",
		},
		{Detections: [][]stap.Detection{}},
		{},
	}
	var buf bytes.Buffer
	for _, v := range reqs {
		if err := wire.WriteFrame(&buf, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range resps {
		if err := wire.WriteFrame(&buf, v); err != nil {
			t.Fatal(err)
		}
	}
	fr := wire.NewReader(&buf)
	for _, want := range reqs {
		got := &Request{ID: 77, Trace: true, CPIs: []*cube.Cube{nil}} // a reused target is overwritten whole
		if kind, _, err := fr.Next(); err != nil || kind != wire.Plain {
			t.Fatalf("request header: %q, %v", kind, err)
		}
		if _, err := fr.Decode(got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("request round trip:\n got %+v\nwant %+v", got, want)
		}
	}
	for _, want := range resps {
		got := &Response{Err: "stale", Detections: [][]stap.Detection{nil}}
		if _, err := fr.ReadFrame(got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("response round trip:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestServeRefusesOtherBuild: a frame from a client of another build (its
// format version byte differs) is answered with StatusBadRequest naming
// both versions, in this build's format, and the connection is closed.
// The frame is a whole job, body and all, as a real client sends it: the
// reply must arrive although stapd never reads that body.
func TestServeRefusesOtherBuild(t *testing.T) {
	sc := radar.DefaultScene(radar.Small())
	s := startServer(t, Config{Scene: sc, Assign: pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1), Window: 2})
	defer s.Shutdown(context.Background())
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var frame bytes.Buffer
	req := &Request{ID: 1}
	for i := 0; i < 8; i++ {
		req.CPIs = append(req.CPIs, sc.GenerateCPI(i))
	}
	if err := wire.WriteFrame(&frame, req); err != nil {
		t.Fatal(err)
	}
	frame.Bytes()[0]++ // the format version byte
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		conn.Write(frame.Bytes()) // stapd reads only the header
	}()
	var resp Response
	if err := wire.ReadFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBadRequest || !strings.Contains(resp.Err, "format version") {
		t.Errorf("reply %s (%s), want %s naming the format versions", resp.Status, resp.Err, StatusBadRequest)
	}
	if err := wire.ReadFrame(conn, &resp); err != io.EOF {
		t.Errorf("after the refusal: %v, want the connection closed (io.EOF)", err)
	}
	conn.Close()
	<-sent
	if snap := s.Metrics().Snapshot(); snap.Accepted != 0 {
		t.Errorf("accepted = %d, want 0", snap.Accepted)
	}
}

// FuzzServeRequest feeds arbitrary bytes to what a stapd connection does
// with them: read one frame into a request slot, then validate it against
// the scene. The slot is one warm slot reused across inputs, as the server
// reuses its pool. Any input is an error or a valid job, never a panic or
// a runaway allocation: a count the body cannot hold is refused before the
// slot grows, and a slot that decoded a request holds that request's
// samples and no more, whatever earlier inputs left. A decode into the
// warm slot yields exactly what a one-shot decode into a fresh Request
// yields, and afterwards the known-good seed still decodes to its own
// values, so a corrupt request leaves nothing a later one can see. Seeds:
// a good job, the malformed jobs of TestServeValidation (empty, nil cube,
// wrong shape, short payload), and truncated and corrupted copies of the
// good one as in cpifile's TestReadTruncated. Run it with
//
//	go test -run '^$' -fuzz FuzzServeRequest -fuzztime 10s ./internal/serve
func FuzzServeRequest(f *testing.F) {
	// A 2x2x2 scene keeps the seeds small enough to mutate and minimize.
	sc := radar.DefaultScene(radar.Small())
	sc.Params.K, sc.Params.J, sc.Params.N = 2, 2, 2
	s := &Server{cfg: Config{Scene: sc}}
	ok := cube.New(radar.RawOrder, 2, 2, 2)
	for i := range ok.Data {
		ok.Data[i] = complex(float64(i), 1)
	}
	short := cube.New(radar.RawOrder, 2, 2, 2)
	short.Data = short.Data[:5]
	var good []byte
	for i, req := range []*Request{
		{ID: 1, CPIs: []*cube.Cube{ok, ok}, DeadlineMs: 500},
		{ID: 2},
		{ID: 3, CPIs: []*cube.Cube{nil}},
		{ID: 4, CPIs: []*cube.Cube{cube.New(radar.RawOrder, 1, 1, 1)}},
		{ID: 5, CPIs: []*cube.Cube{cube.New(radar.StaggeredOrder, 2, 2, 2)}},
		{ID: 6, CPIs: []*cube.Cube{short}},
	} {
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if i == 0 {
			good = buf.Bytes()
		}
	}
	for _, n := range []int{0, 1, 7, len(good) / 2, len(good) - 1} {
		f.Add(good[:n])
	}
	flipped := append([]byte(nil), good...)
	for i := len(flipped) / 4; i < len(flipped)/2; i++ {
		flipped[i] ^= 0xA5
	}
	f.Add(flipped)

	var sl requestSlot
	var goodReq Request
	if err := wire.ReadFrame(bytes.NewReader(good), &goodReq); err != nil {
		f.Fatal(err)
	}
	goodFlat := flatOf(f, &goodReq)
	f.Fuzz(func(t *testing.T, b []byte) {
		var fresh Request
		freshErr := wire.ReadFrame(bytes.NewReader(b), &fresh)
		cpis, samples := slotCaps(&sl)
		err := readSlot(&sl, b)
		if (err == nil) != (freshErr == nil) {
			t.Fatalf("warm slot decode: %v; one-shot decode: %v", err, freshErr)
		}
		cpis2, samples2 := slotCaps(&sl)
		if cpis2 > max(cpis, len(b)) || samples2 > max(samples, len(b)) {
			t.Fatalf("a %d-byte input left the slot with a cube list of %d (was %d) and %d B of samples (was %d)",
				len(b), cpis2, cpis, samples2, samples)
		}
		defer func() {
			if err := readSlot(&sl, good); err != nil || !bytes.Equal(flatOf(t, &sl.req), goodFlat) {
				t.Fatalf("the known-good request no longer decodes to its values after this input (%v)", err)
			}
		}()
		if err != nil {
			return
		}
		if !bytes.Equal(flatOf(t, &sl.req), flatOf(t, &fresh)) {
			t.Fatal("the warm slot decoded other values than a one-shot decode")
		}
		want := 0
		for _, c := range fresh.CPIs {
			if c != nil {
				want += 16 * len(c.Data)
			}
		}
		if samples2 != want {
			t.Fatalf("the slot holds %d B of samples after decoding %d", samples2, want)
		}
		req := &sl.req
		if s.validate(req) != nil {
			return
		}
		if len(req.CPIs) == 0 {
			t.Fatal("an empty job validated")
		}
		for i, c := range req.CPIs {
			if c.Axes != radar.RawOrder || len(c.Data) != 8 {
				t.Fatalf("CPI %d validated with axes %v and %d samples", i, c.Axes, len(c.Data))
			}
		}
	})
}

// readSlot reads one frame from b into sl the way handleConn does: the
// header, then the body into the slot.
func readSlot(sl *requestSlot, b []byte) error {
	fr := wire.NewReader(bytes.NewReader(b))
	k, _, err := fr.Next()
	if err != nil {
		return err
	}
	if k != wire.Plain {
		return fmt.Errorf("kind %#x", byte(k))
	}
	_, err = fr.Decode(&sl.req)
	return err
}

// slotCaps returns the memory a slot holds: its cube list's capacity and
// the sample capacity, in bytes, of every cube the list's backing array
// still points at.
func slotCaps(sl *requestSlot) (cpis, samples int) {
	all := sl.req.CPIs[:cap(sl.req.CPIs)]
	for _, c := range all {
		if c != nil {
			samples += 16 * cap(c.Data)
		}
	}
	return len(all), samples
}

// flatOf returns r's flat form: two requests with the same flat form hold
// the same values bit for bit, nil and empty slices told apart.
func flatOf(tb testing.TB, r *Request) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, r); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
