package paperdata

import "testing"

func TestTable1SumsToTotal(t *testing.T) {
	var sum int64
	for _, v := range Table1 {
		sum += v
	}
	if sum != Table1Total {
		t.Errorf("Table 1 entries sum to %d, published total %d", sum, Table1Total)
	}
}

func TestAssignmentTotals(t *testing.T) {
	for _, tc := range []struct {
		name  string
		total int
	}{
		{"case1", Case1.Total()},
		{"case2", Case2.Total()},
		{"case3", Case3.Total()},
		{"table9", Table9.Total()},
		{"table10", Tbl10.Total()},
	} {
		want := map[string]int{"case1": 236, "case2": 118, "case3": 59, "table9": 122, "table10": 138}[tc.name]
		if tc.total != want {
			t.Errorf("%s total %d, want %d", tc.name, tc.total, want)
		}
	}
}

func TestTable8RowsConsistent(t *testing.T) {
	if len(Table8) != 3 {
		t.Fatal("rows")
	}
	for _, row := range Table8 {
		// equation latency is the documented upper bound on real latency
		if row.LatencyEq <= row.LatencyReal {
			t.Errorf("%d nodes: eq latency %.4f <= real %.4f", row.Nodes, row.LatencyEq, row.LatencyReal)
		}
		if row.ThroughputReal <= 0 {
			t.Errorf("%d nodes: throughput", row.Nodes)
		}
	}
	// halving nodes roughly halves throughput in the published data
	if r := Table8[0].ThroughputReal / Table8[2].ThroughputReal; r < 3 || r > 5 {
		t.Errorf("published 236/59 throughput ratio %.2f", r)
	}
}

func TestRTMCARMReference(t *testing.T) {
	if RTMCARM.Nodes != 25 || RTMCARM.Throughput != 10 || RTMCARM.Latency != 2.35 {
		t.Error("flight constants")
	}
}

func TestCommTablesDataConsistent(t *testing.T) {
	for id := 2; id <= 6; id++ {
		c, ok := CommTables[id]
		if !ok {
			t.Errorf("table %d missing", id)
			continue
		}
		for bi, b := range c.Blocks {
			if len(b.Times) != len(c.SrcNodes) {
				t.Errorf("table %d block %d: %d rows for %d src configs", id, bi, len(b.Times), len(c.SrcNodes))
			}
		}
	}
	if len(CommTables) != 5 {
		t.Errorf("%d communication tables, want Tables 2-6", len(CommTables))
	}
}
