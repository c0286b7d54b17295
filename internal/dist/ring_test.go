package dist

import (
	"slices"
	"testing"

	"pstap/internal/cube"
	"pstap/internal/leakcheck"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

// TestRingDepthSplitReplica is pipeline's TestRingDepthHoldsTheWindow
// through a replica split 0-2/3-6 across two loopback nodes: at in-flight
// windows 1 and 2, 72 CPIs over 15 jobs must equal the serial reference
// bit for bit. The node-local hops (Doppler to the weight tasks, the
// beamformers onward) still pass payloads from the senders' rings by
// reference, so under -race a ring shallower than window+1 is a reported
// race here too; the hops between processes encode inside Send.
func TestRingDepthSplitReplica(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	_, addrs := startNodes(t, 2)
	lengths := []int{1, 5, 2, 8, 3, 4, 1, 6, 7, 2, 9, 4, 5, 3, 12}
	for _, window := range []int{1, 2} {
		cfg := testCluster(t, addrs, sc)
		cfg.Window = window
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
				t.Fatalf("window %d job %d: %v", window, j, err)
			}
			ref := stap.NewProcessor(sc)
			for i, raw := range cpis {
				if want := ref.Process(raw).Detections; !slices.Equal(got[i], want) {
					t.Fatalf("window %d job %d CPI %d: split replica %v != serial %v", window, j, i, got[i], want)
				}
			}
		}
		rep.Close()
	}
}
