package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFlightRecordRoundTrip(t *testing.T) {
	cfg := testConfig()
	cfg.SlowMultiple = 3
	c := New(cfg)
	base := c.Start()
	for cpi := 0; cpi < 20; cpi++ {
		record(c, 0, 0, cpi, base, time.Millisecond, time.Millisecond, time.Millisecond)
	}
	record(c, 0, 0, 20, base, time.Millisecond, 28*time.Millisecond, time.Millisecond)

	rec := NewFlightRecord("node a/1", "sess-42", "worker fault: boom", c)
	rec.Pending = []int{0, 3, -1}
	dir := t.TempDir()
	path, err := WriteFlightRecord(dir, rec)
	if err != nil {
		t.Fatal(err)
	}
	base1 := filepath.Base(path)
	if !strings.HasPrefix(base1, "flightrec-") || !strings.HasSuffix(base1, "-node-a-1.json") {
		t.Errorf("flight record name %q", base1)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got FlightRecord
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("flight record is not valid JSON: %v", err)
	}
	if got.Reason != "worker fault: boom" || got.Session != "sess-42" {
		t.Errorf("identity round-trip: %+v", got)
	}
	if len(got.Events) != 21 {
		t.Errorf("events %d, want 21", len(got.Events))
	}
	if len(got.SlowLog) != 1 || !strings.Contains(got.SlowLog[0], "cpi=20") {
		t.Errorf("slow log %q", got.SlowLog)
	}
	if got.StartUnixNs == 0 || got.Counters == nil {
		t.Errorf("missing epoch/counters: start=%d counters=%v", got.StartUnixNs, got.Counters)
	}
	if got.Pending[1] != 3 {
		t.Errorf("pending %v", got.Pending)
	}
}

func TestFlightRecordNilCollector(t *testing.T) {
	rec := NewFlightRecord("", "", "cause", nil)
	if _, err := WriteFlightRecord(t.TempDir(), rec); err != nil {
		t.Fatal(err)
	}
}

func TestFlightRecordRotation(t *testing.T) {
	dir := t.TempDir()
	rec := NewFlightRecord("node", "", "fault", nil)
	var last string
	for i := 0; i < DefaultFlightKeep+5; i++ {
		p, err := WriteFlightRecord(dir, rec)
		if err != nil {
			t.Fatal(err)
		}
		last = p
	}
	matches, err := filepath.Glob(filepath.Join(dir, "flightrec-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != DefaultFlightKeep {
		t.Fatalf("records after rotation: %d, want %d: %v", len(matches), DefaultFlightKeep, matches)
	}
	// The newest record always survives its own rotation.
	found := false
	for _, m := range matches {
		if m == last {
			found = true
		}
	}
	if !found {
		t.Errorf("latest record %s rotated away; kept %v", last, matches)
	}
	// A foreign file in the directory is never touched by a write that
	// prunes.
	alien := filepath.Join(dir, "stapnode-final.snapshot.json")
	if err := os.WriteFile(alien, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFlightRecord(dir, rec); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(alien); err != nil {
		t.Errorf("rotation touched a non-flightrec file: %v", err)
	}
}

func TestFlightRecordDefaultKeep(t *testing.T) {
	dir := t.TempDir()
	rec := NewFlightRecord("node", "", "fault", nil)
	for i := 0; i < DefaultFlightKeep+4; i++ {
		if _, err := WriteFlightRecord(dir, rec); err != nil {
			t.Fatal(err)
		}
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "flightrec-*.json"))
	if len(matches) != DefaultFlightKeep {
		t.Fatalf("records %d, want default keep %d", len(matches), DefaultFlightKeep)
	}
}
