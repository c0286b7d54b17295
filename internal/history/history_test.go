package history

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

const sec = int64(time.Second)

// TestRingWraparound fills the rings far past capacity and checks only
// the newest tier0Cap samples survive, in order.
func TestRingWraparound(t *testing.T) {
	st := NewStore()
	id := st.Register("x")
	n := 10*tier10Cap + 400 // 400 buckets past the 10 s ring's capacity
	for i := 0; i < n; i++ {
		st.Observe(id, int64(i)*sec, float64(i))
	}
	pts := st.Range("x", Tier0, 0, 0)
	if len(pts) != tier0Cap {
		t.Fatalf("got %d raw points, want ring cap %d", len(pts), tier0Cap)
	}
	for i, p := range pts {
		want := n - tier0Cap + i
		if p.T != int64(want)*sec || p.Mean != float64(want) {
			t.Fatalf("point %d = %+v, want T=%ds mean=%d", i, p, want, want)
		}
	}
	// Rollup rings wrap too: n samples → n/10 full 10 s buckets, the ring
	// keeps the latest tier10Cap closed ones plus the in-progress bucket.
	p10 := st.Range("x", Tier10, 0, 0)
	if len(p10) != tier10Cap+1 {
		t.Fatalf("got %d 10s buckets, want %d closed + 1 open", len(p10), tier10Cap)
	}
	first, last := int64(n-10*(tier10Cap+1))*sec, int64(n-10)*sec
	if p10[0].T != first || p10[len(p10)-1].T != last {
		t.Fatalf("10s bucket range [%d, %d], want [%d, %d]", p10[0].T, p10[len(p10)-1].T, first, last)
	}
}

// TestTierBoundaryAlignment drops a sample exactly on a rollup edge and
// checks it starts the new bucket rather than closing into the old one.
func TestTierBoundaryAlignment(t *testing.T) {
	st := NewStore()
	id := st.Register("x")
	base := int64(1000) * sec // aligned to both 10 s and 60 s
	st.Observe(id, base+9*sec, 1)
	st.Observe(id, base+10*sec, 5) // exactly on the 10 s edge
	st.Observe(id, base+11*sec, 7)

	pts := st.Range("x", Tier10, 0, 0)
	if len(pts) != 2 {
		t.Fatalf("got %d buckets, want 2: %+v", len(pts), pts)
	}
	first, second := pts[0], pts[1]
	if first.T != base || first.Count != 1 || first.Mean != 1 {
		t.Fatalf("first bucket %+v, want T=%d count=1 mean=1", first, base)
	}
	if second.T != base+10*sec || second.Count != 2 {
		t.Fatalf("edge sample must open the new bucket; got %+v", second)
	}
	if second.Min != 5 || second.Max != 7 || second.Mean != 6 {
		t.Fatalf("second bucket stats %+v, want min=5 max=7 mean=6", second)
	}
	// All three land in one 60 s bucket.
	p60 := st.Range("x", Tier60, 0, 0)
	if len(p60) != 1 || p60[0].Count != 3 || p60[0].T != base-mod(base, 60*sec) {
		t.Fatalf("60s tier %+v, want one 3-sample bucket", p60)
	}
}

// TestRangeStraddlesEvictedData queries a window that begins before the
// oldest retained sample: the evicted portion is silently absent and the
// retained tail comes back intact.
func TestRangeStraddlesEvictedData(t *testing.T) {
	st := NewStore()
	id := st.Register("x")
	for i := 0; i < tier0Cap+40; i++ {
		st.Observe(id, int64(i)*sec, float64(i))
	}
	// Samples 0..39 are evicted; ask for [20 s, 45 s].
	pts := st.Range("x", Tier0, 20*sec, 45*sec)
	if len(pts) != 6 {
		t.Fatalf("got %d points, want 6 (40s..45s)", len(pts))
	}
	if pts[0].T != 40*sec || pts[5].T != 45*sec {
		t.Fatalf("range [%d, %d], want [40s, 45s]", pts[0].T, pts[5].T)
	}
	// Fully-evicted window → empty, not an error.
	if got := st.Range("x", Tier0, 0, 30*sec); len(got) != 0 {
		t.Fatalf("fully evicted window returned %d points", len(got))
	}
	// Unknown series → nil.
	if got := st.Range("nope", Tier0, 0, 0); got != nil {
		t.Fatalf("unknown series returned %v", got)
	}
}

func TestHandlerRangeQuery(t *testing.T) {
	st := NewStore()
	a, b := st.Register("a"), st.Register("b")
	for i := 0; i < 10; i++ {
		st.Observe(a, int64(i)*sec, float64(i))
		st.Observe(b, int64(i)*sec, float64(-i))
	}
	h := st.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/history.json?series=a&from="+itoa(3*sec)+"&to="+itoa(5*sec), nil))
	var resp RangeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Series) != 1 || len(resp.Series["a"]) != 3 {
		t.Fatalf("series=a from=3s to=5s → %+v", resp.Series)
	}
	if resp.Tier != "1s" {
		t.Fatalf("tier %q, want 1s", resp.Tier)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/history.json?tier=10s", nil))
	resp = RangeResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Series) != 2 {
		t.Fatalf("all-series query returned %d series", len(resp.Series))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/history.json?tier=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad tier → %d, want 400", rec.Code)
	}
}

func TestDumpPrefix(t *testing.T) {
	st := NewStore()
	st.ObserveName("r0/lat", sec, 1)
	st.ObserveName("r0/thr", sec, 2)
	st.ObserveName("r1/lat", sec, 3)
	d := st.Dump("r0/", Tier0, 0, 0)
	if len(d) != 2 {
		t.Fatalf("prefix dump returned %d series, want 2", len(d))
	}
	if len(st.Dump("", Tier0, 0, 0)) != 3 {
		t.Fatal("empty prefix should match all")
	}
}

func itoa(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
