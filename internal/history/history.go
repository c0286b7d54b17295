// Package history is an embedded, allocation-free ring time-series store.
//
// It records scalar samples (gauges, counters, attribution components, link
// stats) at 1 s resolution and maintains two downsampling tiers — 10 s and
// 60 s min/max/mean/count rollups — per series, all inside preallocated ring
// buffers so memory stays bounded no matter how long the process runs.
// Samples are keyed by unix-nanosecond timestamps; rollup buckets are aligned
// to wall-clock multiples of the tier width, and a sample landing exactly on
// a bucket edge starts the next bucket (the edge belongs to the newer bucket).
//
// The store is safe for concurrent use. Observe on a registered series does
// not allocate; registration (which sizes the rings) is the only allocating
// path.
package history

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Point is one sample (tier 0) or one rollup bucket (tiers 10 s / 60 s).
// T is the unix-ns timestamp of the sample, or the bucket start for rollups.
type Point struct {
	T     int64   `json:"t"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Count int     `json:"count"`
}

// Tier selects a resolution.
type Tier int

const (
	Tier0  Tier = iota // raw samples, nominally 1 s apart
	Tier10             // 10 s min/max/mean/count rollups
	Tier60             // 60 s min/max/mean/count rollups
)

// Width returns the bucket width of the tier (0 for raw samples).
func (t Tier) Width() time.Duration {
	switch t {
	case Tier10:
		return 10 * time.Second
	case Tier60:
		return 60 * time.Second
	}
	return 0
}

func (t Tier) String() string {
	switch t {
	case Tier10:
		return "10s"
	case Tier60:
		return "60s"
	}
	return "1s"
}

// ParseTier maps "1s"/"10s"/"60s" (also "0"/"raw", "1m") to a Tier.
func ParseTier(s string) (Tier, error) {
	switch strings.TrimSpace(s) {
	case "", "1s", "0", "raw":
		return Tier0, nil
	case "10s", "10":
		return Tier10, nil
	case "60s", "60", "1m":
		return Tier60, nil
	}
	return Tier0, fmt.Errorf("history: unknown tier %q (want 1s, 10s or 60s)", s)
}

// ring is a fixed-capacity circular buffer of Points.
type ring struct {
	buf   []Point
	head  int // index of the next write
	count int // number of valid points (<= len(buf))
}

func newRing(cap int) *ring {
	return &ring{buf: make([]Point, cap)}
}

func (r *ring) push(p Point) {
	r.buf[r.head] = p
	r.head = (r.head + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
}

// scan calls f for each point oldest → newest.
func (r *ring) scan(f func(Point) bool) {
	start := r.head - r.count
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.count; i++ {
		if !f(r.buf[(start+i)%len(r.buf)]) {
			return
		}
	}
}

// rollup accumulates samples into width-aligned buckets backed by a ring.
type rollup struct {
	width int64 // bucket width, ns
	ring  *ring
	cur   Point // in-progress bucket; Count==0 means empty
}

func (ru *rollup) observe(t int64, v float64) {
	bucket := t - mod(t, ru.width)
	if ru.cur.Count > 0 && bucket != ru.cur.T {
		ru.ring.push(ru.cur)
		ru.cur = Point{}
	}
	if ru.cur.Count == 0 {
		ru.cur = Point{T: bucket, Min: v, Max: v, Mean: v, Count: 1}
		return
	}
	if v < ru.cur.Min {
		ru.cur.Min = v
	}
	if v > ru.cur.Max {
		ru.cur.Max = v
	}
	n := float64(ru.cur.Count)
	ru.cur.Mean = (ru.cur.Mean*n + v) / (n + 1)
	ru.cur.Count++
}

// mod is a floored modulo so pre-1970 timestamps still align.
func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// series holds one named metric across all tiers.
type series struct {
	name string
	raw  *ring
	r10  rollup
	r60  rollup
}

// Per-series ring capacities: 5 min of raw 1 s samples, 1 h of 10 s
// buckets and 24 h of 60 s buckets.
const (
	tier0Cap  = 300
	tier10Cap = 360
	tier60Cap = 1440
)

// Store is a bounded multi-series time-series store.
type Store struct {
	mu    sync.RWMutex
	names map[string]int
	all   []*series
}

// NewStore builds an empty store.
func NewStore() *Store {
	return &Store{names: make(map[string]int)}
}

// Register adds a series (idempotent) and returns its id for Observe.
func (s *Store) Register(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.names[name]; ok {
		return id
	}
	id := len(s.all)
	s.names[name] = id
	s.all = append(s.all, &series{
		name: name,
		raw:  newRing(tier0Cap),
		r10:  rollup{width: int64(10 * time.Second), ring: newRing(tier10Cap)},
		r60:  rollup{width: int64(60 * time.Second), ring: newRing(tier60Cap)},
	})
	return id
}

// Observe records one sample on a registered series. It does not allocate.
func (s *Store) Observe(id int, tUnixNs int64, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.all) {
		return
	}
	se := s.all[id]
	se.raw.push(Point{T: tUnixNs, Min: v, Max: v, Mean: v, Count: 1})
	se.r10.observe(tUnixNs, v)
	se.r60.observe(tUnixNs, v)
}

// ObserveName is Register + Observe in one call, for low-rate callers.
func (s *Store) ObserveName(name string, tUnixNs int64, v float64) {
	s.Observe(s.Register(name), tUnixNs, v)
}

// Names returns the registered series names, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.all))
	for _, se := range s.all {
		out = append(out, se.name)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Range returns points of one series in [from, to] (unix ns, inclusive).
// from<=0 means the beginning of retained data; to<=0 means "now". For the
// rollup tiers the in-progress bucket is included so fresh data is visible.
func (s *Store) Range(name string, tier Tier, from, to int64) []Point {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.names[name]
	if !ok {
		return nil
	}
	return s.rangeLocked(s.all[id], tier, from, to)
}

func (s *Store) rangeLocked(se *series, tier Tier, from, to int64) []Point {
	if to <= 0 {
		to = math.MaxInt64
	}
	var out []Point
	collect := func(p Point) bool {
		if p.T > to {
			return false
		}
		if p.T >= from {
			out = append(out, p)
		}
		return true
	}
	switch tier {
	case Tier10:
		se.r10.ring.scan(collect)
		if c := se.r10.cur; c.Count > 0 && c.T >= from && c.T <= to {
			out = append(out, c)
		}
	case Tier60:
		se.r60.ring.scan(collect)
		if c := se.r60.cur; c.Count > 0 && c.T >= from && c.T <= to {
			out = append(out, c)
		}
	default:
		se.raw.scan(collect)
	}
	return out
}

// Dump returns every series whose name starts with prefix, restricted to
// [from, to] at the given tier. Empty prefix matches everything. Series with
// no points in range are omitted.
func (s *Store) Dump(prefix string, tier Tier, from, to int64) map[string][]Point {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string][]Point)
	for _, se := range s.all {
		if prefix != "" && !strings.HasPrefix(se.name, prefix) {
			continue
		}
		if pts := s.rangeLocked(se, tier, from, to); len(pts) > 0 {
			out[se.name] = pts
		}
	}
	return out
}
