package pipeline

import (
	"testing"
	"time"

	"pstap/internal/obs"
	"pstap/internal/radar"
)

// runOnce times one 16-CPI job on a fresh stream, with or without a
// collector attached. It drives NewStream rather than Run because Run
// always journals (its Result is read from the journal), so through Run
// the "off" side would be observed too.
func runOnce(b testing.TB, col *obs.Collector) time.Duration {
	sc := radar.DefaultScene(radar.Small())
	a := NewAssignment(2, 1, 1, 1, 1, 1, 1)
	cpis := job(sc, 0, 16)
	start := time.Now()
	st, err := NewStream(StreamConfig{Scene: sc, Assign: a, Obs: col})
	if err != nil {
		b.Fatal(err)
	}
	_, err = st.ProcessJob(cpis)
	elapsed := time.Since(start)
	st.Close()
	if err != nil {
		b.Fatal(err)
	}
	return elapsed
}

// BenchmarkRunObsOff is the baseline for BenchmarkRunObsOn: the same
// 16-CPI job without a collector attached.
func BenchmarkRunObsOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runOnce(b, nil)
	}
}

// BenchmarkRunObsOn measures the full pipeline with the telemetry layer
// recording every span and message. Compare against BenchmarkRunObsOff;
// the delta is the obs overhead (a few atomic adds and one ring store per
// worker loop — it should be lost in the noise).
func BenchmarkRunObsOn(b *testing.B) {
	col := obs.New(DefaultObsConfig(NewAssignment(2, 1, 1, 1, 1, 1, 1)))
	for i := 0; i < b.N; i++ {
		runOnce(b, col)
	}
}

// TestObsOverheadIsSmall asserts the acceptance bound from the issue: the
// always-on telemetry must cost well under 5% of pipeline time. The
// threshold here is deliberately generous (50%) because single-digit
// percentages are unmeasurable at test-sized runs on a noisy CI machine;
// the benchmark pair above gives the honest number.
func TestObsOverheadIsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// Best of five, the two sides interleaved so a load shift on the
	// machine (other packages' tests run alongside) hits both alike.
	col := obs.New(DefaultObsConfig(NewAssignment(2, 1, 1, 1, 1, 1, 1)))
	runOnce(t, nil) // warm caches and the scheduler before timing
	off, on := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < 5; i++ {
		off = min(off, runOnce(t, nil))
		on = min(on, runOnce(t, col))
	}
	t.Logf("obs off %v, obs on %v (%.1f%%)", off, on, 100*(float64(on)/float64(off)-1))
	if float64(on) > 1.5*float64(off) {
		t.Errorf("obs overhead too large: off %v, on %v", off, on)
	}
}
