package slo

import (
	"path/filepath"
	"testing"
	"time"

	"pstap/internal/history"
)

const sec = int64(time.Second)

func latencySpec() Spec {
	return Spec{
		Name: "lat", Series: "r0/eq2_latency_seconds", Kind: LatencyBound,
		Threshold: 0.1, Objective: 0.5, // 50% budget: badFrac/0.5 = burn
		FastWindowSec: 2, SlowWindowSec: 60,
		FastBurn: 1.2, SlowBurn: 1, MinSamples: 2,
	}
}

func TestBurnRateFiresAndResolves(t *testing.T) {
	st := history.NewStore()
	id := st.Register("r0/eq2_latency_seconds")
	e, err := NewEngine(st, []Spec{latencySpec()})
	if err != nil {
		t.Fatal(err)
	}
	var breaches []Alert
	e.OnBreachStart = func(a Alert) { breaches = append(breaches, a) }

	now := int64(1000) * sec
	tick := func(v float64) {
		st.Observe(id, now, v)
		e.Evaluate(time.Unix(0, now))
		now += sec
	}
	for i := 0; i < 5; i++ {
		tick(0.01) // healthy
	}
	if e.FiringCount() != 0 {
		t.Fatal("fired on healthy samples")
	}
	// All-bad samples: fast window badFrac → 1, burn 2 ≥ 1.5.
	tick(0.5)
	tick(0.5)
	a := e.Alerts()[0]
	if !a.Firing || !a.Fast.Firing {
		t.Fatalf("fast window should fire after 2 bad samples: %+v", a)
	}
	if a.FiredEval-a.BreachEval > 2 {
		t.Fatalf("fired %d evals after first breach, want ≤ 2", a.FiredEval-a.BreachEval)
	}
	if len(breaches) != 1 || breaches[0].Spec.Name != "lat" {
		t.Fatalf("breach hook calls = %+v, want exactly one", breaches)
	}
	if a.LastValue != 0.5 {
		t.Fatalf("last value %v, want 0.5", a.LastValue)
	}
	// Recovery: healthy samples age the bad ones out of the fast window.
	for i := 0; i < 12; i++ {
		tick(0.01)
	}
	a = e.Alerts()[0]
	if a.Fast.Firing {
		t.Fatalf("fast window still firing after recovery: %+v", a.Fast)
	}
	// Slow window (60 s) still holds 2 bad of ~19 → burn ~0.2 < 1.
	if a.Firing {
		t.Fatalf("alert should resolve: %+v", a)
	}
	if len(breaches) != 1 {
		t.Fatal("breach hook must fire only on the start transition")
	}
}

func TestMinSamplesGate(t *testing.T) {
	st := history.NewStore()
	id := st.Register("r0/eq2_latency_seconds")
	e, _ := NewEngine(st, []Spec{latencySpec()})
	now := int64(1000) * sec
	st.Observe(id, now, 99) // one catastrophic sample
	e.Evaluate(time.Unix(0, now))
	if e.FiringCount() != 0 {
		t.Fatal("a single sample must not page (MinSamples=2)")
	}
}

func TestThroughputFloorDirection(t *testing.T) {
	st := history.NewStore()
	id := st.Register("r0/eq1_throughput")
	spec := Spec{
		Name: "thr", Series: "r0/eq1_throughput", Kind: ThroughputFloor,
		Threshold: 100, Objective: 0.5, FastWindowSec: 10, SlowWindowSec: 60,
		FastBurn: 1.5, MinSamples: 2,
	}
	e, _ := NewEngine(st, []Spec{spec})
	now := int64(1000) * sec
	for i := 0; i < 3; i++ {
		st.Observe(id, now, 500) // above floor: good
		e.Evaluate(time.Unix(0, now))
		now += sec
	}
	if e.FiringCount() != 0 {
		t.Fatal("throughput above floor fired")
	}
	for i := 0; i < 12; i++ {
		st.Observe(id, now, 10) // collapsed
		e.Evaluate(time.Unix(0, now))
		now += sec
	}
	if e.FiringCount() != 1 {
		t.Fatal("collapsed throughput did not fire")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{},
		{Name: "x"},
		{Name: "x", Series: "s"},
		{Name: "x", Series: "s", Kind: "sideways", Threshold: 1},
		{Name: "x", Series: "s", Kind: LatencyBound, Threshold: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("spec %d should be invalid: %+v", i, s)
		}
	}
	if _, err := NewEngine(history.NewStore(), bad[:1]); err == nil {
		t.Fatal("engine accepted invalid spec")
	}
}

func TestFileSignRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slo.json")
	secret := []byte("cluster-secret")
	f := &File{SLOs: []Spec{latencySpec()}}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, f, secret); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Verify(secret) {
		t.Fatal("signature did not verify")
	}
	if g.Verify([]byte("wrong")) {
		t.Fatal("signature verified under the wrong secret")
	}
	g.SLOs[0].Threshold = 99
	if g.Verify(secret) {
		t.Fatal("tampered file verified")
	}
	dup := &File{SLOs: []Spec{latencySpec(), latencySpec()}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate SLO names accepted")
	}
	if err := (&File{}).Validate(); err == nil {
		t.Fatal("empty file accepted")
	}
}
