package dist

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/leakcheck"
	"pstap/internal/mp"
	"pstap/internal/obs"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/stap"
	"pstap/internal/wire"
)

// TestJobBoundarySplitReplica is pipeline's TestJobBoundaryStopsTheWeightEdges
// through a replica split 0-2/3-6 across two loopback nodes, where every
// weight edge crosses the cut: back-to-back jobs of lengths
// {1, 2, 3, 4, 1, 5, 2} must equal a fresh serial reference per job, the
// weight workers must ship exactly Σ(nⱼ − 1) × (weight→beamformer edges)
// frames over the link (counted in the sending node's wire journal), and
// after Close no mailbox on the beamformers' side of the cut may hold a
// message. A beamformer waiting for weights that never come would trip
// the CPI watchdog.
func TestJobBoundarySplitReplica(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	nodes, addrs := startNodes(t, 2)
	lengths := []int{1, 2, 3, 4, 1, 5, 2}
	trained := 0
	for _, n := range lengths {
		trained += n - 1
	}
	for _, tc := range []struct {
		name  string
		a     pipeline.Assignment
		edges int // (weight worker, beamformer) pairs sharing a bin
	}{
		{"A10", pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1), 3},
		{"A7", pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1), 2},
	} {
		groups := mp.Layout(tc.a[:])
		weightRanks := mp.Group{First: groups[pipeline.TaskEasyWeight].First,
			N: groups[pipeline.TaskEasyWeight].N + groups[pipeline.TaskHardWeight].N}
		for _, window := range []int{1, 2} {
			cfg := testCluster(t, addrs, sc)
			cfg.Assign, cfg.Window, cfg.CPITimeout = tc.a, window, 5*time.Second
			rep := connectRetry(t, cfg)
			from := 0
			for j, n := range lengths {
				cpis := make([]*cube.Cube, n)
				for i := range cpis {
					cpis[i] = sc.GenerateCPI(from + i)
				}
				from += n
				got, err := rep.ProcessJob(cpis)
				if err != nil {
					rep.Abort()
					t.Fatalf("%s window %d job %d: %v", tc.name, window, j, err)
				}
				ref := stap.NewProcessor(sc)
				for i, raw := range cpis {
					if want := ref.Process(raw).Detections; !slices.Equal(got[i], want) {
						t.Fatalf("%s window %d job %d CPI %d: split replica %v != serial %v", tc.name, window, j, i, got[i], want)
					}
				}
			}
			rep.Close()

			sessions := make([]*session, len(nodes))
			for i, n := range nodes {
				sessions[i] = n.lastSession()
				select {
				case <-sessions[i].done:
				case <-time.After(10 * time.Second):
					t.Fatalf("%s window %d: node %d session did not end after Close", tc.name, window, i+1)
				}
			}
			weights := 0
			for _, ev := range sessions[0].col.WireJournal() {
				if ev.Dir == obs.WireSend && weightRanks.Contains(ev.Src) {
					weights++
				}
			}
			if want := trained * tc.edges; weights != want {
				t.Errorf("%s window %d: %d weight frames crossed the cut, want %d (%d trained CPIs x %d edges)",
					tc.name, window, weights, want, trained, tc.edges)
			}
			for r, d := range sessions[1].world.QueueDepths() {
				if d > 0 {
					t.Errorf("%s window %d: rank %d holds %d messages after Close", tc.name, window, r, d)
				}
			}
		}
	}
}

// TestLinkCarriesJobFlags ships a raw slab of a job's last CPI, and of a
// CPI that is not, over one loopback link: each must arrive as the same
// flat bytes it left as, so the Last flag crosses a process boundary
// inside its message as Reset does. The message is built from its
// documented flat form (pipeline's messages.go: kind byte, slab, then
// ctl's fields in declaration order), the only way to set the flag from
// outside pipeline; a codec that dropped the flag would leave a byte of
// it undecoded.
func TestLinkCarriesJobFlags(t *testing.T) {
	leakcheck.Check(t)
	owners := []int{0, 1} // rank 0 on member 0, rank 1 on member 1
	t0, t1 := testTransport(0, 1, owners), testTransport(1, 1, owners)
	w0 := mp.NewPartialWorld(2, mp.Group{First: 0, N: 1}, t0)
	w1 := mp.NewPartialWorld(2, mp.Group{First: 1, N: 1}, t1)
	t0.world, t1.world = w0, w1
	c0, c1 := tcpPair(t)
	t0.runLink(1, "pair", c0)
	t1.runLink(0, "pair", c1)
	t.Cleanup(func() { t0.Close(""); t1.Close("") })

	slab := cube.New(radar.RawOrder, 2, 2, 2)
	for i := range slab.Data {
		slab.Data[i] = complex(float64(i), -0.5)
	}
	for i, last := range []bool{true, false} {
		var e wire.Enc
		e.Byte(1) // the raw-slab kind
		e.Cube(slab)
		e.Bool(false) // Reset
		e.Bool(last)
		e.Bool(false) // EOF
		e.Uint64(0xfeed)
		e.Byte(1) // Hop
		sent := e.Bytes()
		d := wire.NewDec(sent)
		msg, err := pipeline.DecodeMessageInto(d, nil)
		if err == nil {
			err = d.End()
		}
		if err != nil {
			t.Fatalf("last=%v: decode the built message: %v", last, err)
		}
		w0.Comm(0).Send(1, i, msg)
		got := make(chan any, 1)
		go func() { got <- w1.Comm(1).Recv(0, i) }()
		var m any
		select {
		case m = <-got:
		case <-time.After(10 * time.Second):
			t.Fatalf("last=%v: message did not cross the link", last)
		}
		var again wire.Enc
		if err := pipeline.AppendMessage(&again, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), sent) {
			t.Errorf("last=%v: arrived as %x, sent %x", last, again.Bytes(), sent)
		}
	}
}
