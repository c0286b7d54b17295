package dist

import (
	"testing"
	"time"

	"pstap/internal/leakcheck"
	"pstap/internal/radar"
)

// TestFrameConservation runs one job of 144 CPIs over the two-node split,
// long enough that every link's busy direction carries more than 128
// data frames, and holds each link to conserving them: at quiescence
// every end's MsgsSent equals its peer end's MsgsRecv. A link has no flow
// control of its own, so nothing but the stream's window may hold a frame
// back, and nothing may lose or invent one.
func TestFrameConservation(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	nodes, addrs := startNodes(t, 2)
	cfg := testCluster(t, addrs, sc)
	cfg.CPITimeout = 10 * time.Second

	rep, err := cfg.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	const cpis = 144
	dets, err := rep.ProcessJob(makeJob(sc, cpis))
	if err != nil {
		t.Fatalf("job of %d CPIs: %v", cpis, err)
	}
	if len(dets) != cpis {
		t.Fatalf("%d reports, want %d", len(dets), cpis)
	}

	// Every end of every link, keyed by the member at each end: the
	// coordinator is member 0, node i member i+1.
	ends := func() map[[2]int]LinkStats {
		out := make(map[[2]int]LinkStats)
		for _, ls := range rep.LinkStats() {
			out[[2]int{0, ls.Member}] = ls
		}
		for i, n := range nodes {
			for _, ls := range n.Snapshot().Links {
				out[[2]int{i + 1, ls.Member}] = ls
			}
		}
		return out
	}
	conserved := func(got map[[2]int]LinkStats) bool {
		for end, ls := range got {
			if ls.MsgsSent != got[[2]int{end[1], end[0]}].MsgsRecv {
				return false
			}
		}
		return len(got) == 6
	}

	// The job's last frames to the nodes — the stream's end-of-job
	// traffic the coordinator does not wait for — may still be on the
	// wire when it returns; quiescence is when the counts agree.
	var got map[[2]int]LinkStats
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if got = ends(); conserved(got) || time.Now().After(deadline) {
			break
		}
	}
	if len(got) != 6 {
		t.Fatalf("%d link ends, want 6 (three links, two ends each)", len(got))
	}
	for end, ls := range got {
		if peer := got[[2]int{end[1], end[0]}]; ls.MsgsSent != peer.MsgsRecv {
			t.Errorf("member %d sent %d data frames to member %d, which received %d",
				end[0], ls.MsgsSent, end[1], peer.MsgsRecv)
		}
	}
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
		a, b := got[pair], got[[2]int{pair[1], pair[0]}]
		t.Logf("link %d-%d: %d data frames one way, %d the other", pair[0], pair[1], a.MsgsSent, b.MsgsSent)
		if busy := max(a.MsgsSent, b.MsgsSent); busy <= 128 {
			t.Errorf("link %d-%d: busiest direction carried %d data frames, want > 128",
				pair[0], pair[1], busy)
		}
	}
}
