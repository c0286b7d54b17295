package dist

import (
	"testing"
	"time"

	"pstap/internal/leakcheck"
	"pstap/internal/obs"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
)

// TestSplitReplicaAttribution is the acceptance test for the critical-path
// attribution engine over a real distributed replica: one pipeline split
// across two node processes must yield, for every completed CPI, a
// waterfall whose queue + compute + serialize + deserialize + transmit +
// stall components sum to the measured end-to-end latency within the
// pinned tolerance — and, because the data genuinely crosses process
// links here, a nonzero wire share on every CPI (the wire tax behind the
// split-vs-inproc gap the benchmark's dist.small workload records).
func TestSplitReplicaAttribution(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	nodes, addrs := startNodes(t, 2)
	cfg := testCluster(t, addrs, sc)
	col := obs.New(pipeline.DefaultObsConfig(cfg.Assign))
	cfg.Obs = col

	rep, err := cfg.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	const n = 8
	if _, err := rep.ProcessJob(makeJob(sc, n)); err != nil {
		t.Fatal(err)
	}
	// Let heartbeats land so the links carry clock-offset estimates.
	time.Sleep(500 * time.Millisecond)

	offsets := make(map[int]int64)
	for _, ls := range rep.LinkStats() {
		offsets[ls.Member] = ls.OffsetNs
	}

	// Merge the node journals onto the coordinator's clock (PR 5 offset
	// EWMAs correct span timestamps; wire durations are single-clock and
	// merge as-is).
	coordStart := col.Start().UnixNano()
	spans := col.Journal()
	wire := col.WireJournal()
	for i, node := range nodes {
		member := i + 1
		snap := node.Snapshot()
		if len(snap.Events) == 0 {
			t.Fatalf("node %d journaled no spans", member)
		}
		if len(snap.Wire) == 0 {
			t.Fatalf("node %d journaled no wire events", member)
		}
		shift := snap.StartUnixNs - offsets[member] - coordStart
		for _, ev := range snap.Events {
			ev.T0 += shift
			ev.T1 += shift
			ev.T2 += shift
			ev.T3 += shift
			spans = append(spans, ev)
		}
		wire = append(wire, snap.Wire...)
	}

	acfg := pipeline.AttrConfig(cfg.Assign)
	wfs := obs.Attribute(acfg, spans, wire)
	if len(wfs) != n {
		t.Fatalf("attributed %d waterfalls, want %d", len(wfs), n)
	}
	for _, wf := range wfs {
		if wf.E2ENs <= 0 {
			t.Fatalf("CPI %d: nonpositive e2e %d", wf.CPI, wf.E2ENs)
		}
		if f := wf.SumErrFrac(); f > obs.AttrSumTolFrac {
			t.Errorf("CPI %d: components sum to %v vs e2e %v (err %.3f > %.2f)",
				wf.CPI, time.Duration(wf.Comp.Total()), time.Duration(wf.E2ENs), f, obs.AttrSumTolFrac)
		}
		// Every CPI crossed the coord→node1 and node1→node2 links, so the
		// codec + socket share must be visibly nonzero.
		if wf.Comp.Serialize+wf.Comp.Deserialize+wf.Comp.Transmit <= 0 {
			t.Errorf("CPI %d: zero wire components on a split replica: %+v", wf.CPI, wf.Comp)
		}
	}

	// The windowed report must agree: in-tolerance sums and a positive
	// wire fraction — the same direction as the split-vs-inproc latency
	// gap (a split replica is slower precisely because the wire taxes it).
	report := obs.BuildBottleneckReport(acfg, spans, wire, 0, 0)
	if report.WindowCPIs != n {
		t.Fatalf("report window %d CPIs, want %d", report.WindowCPIs, n)
	}
	if !report.SumWithinTol {
		t.Errorf("report out of tolerance: max err %.3f > %.2f", report.SumErrFracMax, report.TolFrac)
	}
	if report.WireFrac <= 0 {
		t.Errorf("report wire fraction %.4f, want > 0 on a split replica", report.WireFrac)
	}
	if len(report.Hops) == 0 {
		t.Error("report has no hop aggregates")
	}
	var hopWire int64
	for _, h := range report.Hops {
		hopWire += h.WireNs()
	}
	if hopWire <= 0 {
		t.Error("hop table carries zero wire cost")
	}

	// The per-link cumulative counters feed the same story: data links
	// must have accumulated codec and socket time.
	var ser, xmit int64
	for _, ls := range rep.LinkStats() {
		ser += ls.SerNs
		xmit += ls.XmitNs
	}
	if ser <= 0 || xmit <= 0 {
		t.Errorf("coordinator link counters ser=%d xmit=%d, want both > 0", ser, xmit)
	}
}

// TestNodeBottlenecksPartial checks a node hosting only part of the
// latency path still reports its measured wire costs: no complete CPI
// (so no waterfalls, trivially in tolerance) but a populated hop table.
func TestNodeBottlenecksPartial(t *testing.T) {
	leakcheck.Check(t)
	sc := radar.DefaultScene(radar.Small())
	nodes, addrs := startNodes(t, 2)
	cfg := testCluster(t, addrs, sc)

	rep, err := cfg.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, err := rep.ProcessJob(makeJob(sc, 4)); err != nil {
		t.Fatal(err)
	}

	for i, node := range nodes {
		nrep := node.Bottlenecks()
		if nrep == nil {
			t.Fatalf("node %d: nil report after a session", i+1)
		}
		if nrep.WindowCPIs != 0 {
			t.Errorf("node %d: %d complete CPIs on a partial pipeline, want 0", i+1, nrep.WindowCPIs)
		}
		if !nrep.SumWithinTol {
			t.Errorf("node %d: empty window out of tolerance", i+1)
		}
		var wire int64
		for _, h := range nrep.Hops {
			wire += h.WireNs()
		}
		if wire <= 0 {
			t.Errorf("node %d: hop table wire cost %d, want > 0", i+1, wire)
		}
	}
}
