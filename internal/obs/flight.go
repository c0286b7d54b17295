package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// FlightRecord is the post-mortem dump a process writes when its replica
// dies (worker fault, CPI watchdog timeout, lost peer): the collector's
// last-N-spans ring journal, the recent slow-CPI log, and whatever
// link/mailbox state the caller attaches — everything needed to
// reconstruct what the pipeline was doing in its final moments without
// any live endpoint to scrape.
type FlightRecord struct {
	Time        string      `json:"time"`
	Process     string      `json:"process"`
	Session     string      `json:"session,omitempty"`
	Reason      string      `json:"reason"`
	StartUnixNs int64       `json:"start_unix_ns"` // collector epoch on the wall clock; Events are relative to it
	Tasks       []TaskMeta  `json:"tasks,omitempty"`
	Counters    *Snapshot   `json:"counters,omitempty"`
	Events      []SpanEvent `json:"events"`
	SlowLog     []string    `json:"slow_log,omitempty"`
	Links       any         `json:"links,omitempty"`   // per-link counters and RTT/offset state (dist.LinkStats)
	Pending     []int       `json:"pending,omitempty"` // per-rank mailbox depths at death (-1 = not hosted)
	Nodes       any         `json:"nodes,omitempty"`   // last federated node snapshots (coordinator side)
	// History, when attached, is the lead-up: the faulted replica's recent
	// metric history (history.Store 10 s-tier dump), so the post-mortem
	// shows the minutes before the death, not just the instant of it.
	History any `json:"history,omitempty"`
}

// NewFlightRecord assembles the collector-derived parts of a record; the
// caller attaches Links/Pending/Nodes as available. A nil collector
// yields a record with reason and identity only.
func NewFlightRecord(process, session, reason string, c *Collector) FlightRecord {
	rec := FlightRecord{
		Time:    time.Now().UTC().Format(time.RFC3339Nano),
		Process: process,
		Session: session,
		Reason:  reason,
	}
	if c != nil {
		snap := c.Snapshot()
		rec.StartUnixNs = c.Start().UnixNano()
		rec.Tasks = c.Tasks()
		rec.Counters = &snap
		rec.Events = c.Journal()
		rec.SlowLog = c.SlowLog()
	}
	return rec
}

// DefaultFlightKeep is how many flight records a directory retains.
const DefaultFlightKeep = 16

// WriteFlightRecord writes rec as flightrec-<unixnanos>-<process>.json
// under dir (created if missing), prunes all but the newest
// DefaultFlightKeep records, and returns the file path. Repeatedly
// faulted replicas therefore cannot fill the disk with post-mortems. The
// record is written under another name and renamed into place, so a
// reader that sees the file sees all of it.
func WriteFlightRecord(dir string, rec FlightRecord) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := filepath.Join(dir, fmt.Sprintf("flightrec-%d-%s.json", time.Now().UnixNano(), sanitizeLabel(rec.Process)))
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(name+".tmp", data, 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(name+".tmp", name); err != nil {
		return "", err
	}
	rotateFlightRecords(dir)
	return name, nil
}

// rotateFlightRecords deletes all but the newest DefaultFlightKeep flight
// records in dir. The unix-nanosecond timestamp embedded in the file name
// orders the records, so rotation needs no stat calls and survives
// clock-skewed mtimes. Removal errors are ignored: rotation is best-effort
// hygiene and must never fail the record write that triggered it.
func rotateFlightRecords(dir string) {
	matches, err := filepath.Glob(filepath.Join(dir, "flightrec-*.json"))
	if err != nil || len(matches) <= DefaultFlightKeep {
		return
	}
	// Lexicographic order matches numeric order while the nanosecond
	// timestamps share a digit count (they do until the 2200s).
	sort.Strings(matches)
	for _, stale := range matches[:len(matches)-DefaultFlightKeep] {
		os.Remove(stale)
	}
}

// sanitizeLabel makes a process name safe as a file-name component.
func sanitizeLabel(s string) string {
	if s == "" {
		return "proc"
	}
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			out = append(out, r)
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}
