package dist

import (
	"testing"
	"time"

	"pstap/internal/leakcheck"
	"pstap/internal/radar"
)

// TestCreditConservation runs one job long enough that every link's busy
// direction spends its whole credit window more than twice over, so the
// job completes only if every receiver grants tokens back at a threshold
// the sender's window reaches. At quiescence each end of each link must
// hold fewer than DefaultWindow/2 tokens ungranted (Window − Credits): a
// grant owed for longer would mean the grant threshold and the sender's
// credits disagree.
func TestCreditConservation(t *testing.T) {
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
	const cpis = 2*DefaultWindow + 16
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
	owed := func(ls LinkStats) int { return ls.Window - ls.Credits }

	// Grants for the job's last frames may still be on the wire when it
	// returns; quiescence is when no end's owed count moves any more.
	var got map[[2]int]LinkStats
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		got = ends()
		settled := len(got) == 6
		for _, ls := range got {
			settled = settled && owed(ls) < DefaultWindow/2
		}
		if settled || time.Now().After(deadline) {
			break
		}
	}
	if len(got) != 6 {
		t.Fatalf("%d link ends, want 6 (three links, two ends each)", len(got))
	}
	for end, ls := range got {
		if ls.Window != DefaultWindow {
			t.Errorf("member %d's link to %d: window %d, want %d", end[0], end[1], ls.Window, DefaultWindow)
		}
		if o := owed(ls); o < 0 || o >= DefaultWindow/2 {
			t.Errorf("member %d's link to %d: %d tokens owed at quiescence, want 0 <= owed < %d",
				end[0], end[1], o, DefaultWindow/2)
		}
	}
	// Each link's busy direction carried more than twice the window, so
	// every one of them needed grants to finish.
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
		a, b := got[pair], got[[2]int{pair[1], pair[0]}]
		t.Logf("link %d-%d: %d data frames one way, %d the other", pair[0], pair[1], a.MsgsSent, b.MsgsSent)
		if busy := max(a.MsgsSent, b.MsgsSent); busy <= 2*DefaultWindow {
			t.Errorf("link %d-%d: busiest direction carried %d data frames, want > %d",
				pair[0], pair[1], busy, 2*DefaultWindow)
		}
	}
}
