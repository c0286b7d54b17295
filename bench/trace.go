package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the program. Parent is the index of the
// span that caused it (-1 for a root); spans of one job share Job. Lane
// is the submitter (or probe) that produced it and becomes the Chrome
// trace thread, so concurrent jobs do not overlap on one row.
type span struct {
	Name       string
	Start, End time.Time
	Parent     int
	Job        int
	Lane       int
}

// tracer keeps spans in memory and writes them out once, when the
// benchmark ends. A nil tracer records nothing, so the untraced window
// runs the same loop.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its index, for use as the
// parent of its children.
func (t *tracer) add(name string, start, end time.Time, parent, job, lane int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, start, end, parent, job, lane})
	return len(t.spans) - 1
}

// chromeEvent is one complete ("X") event of the Chrome trace format that
// Perfetto and chrome://tracing load. Timestamps are microseconds from the
// first span.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write flushes the spans as Chrome-trace JSON. A child nests under its
// parent because it shares the lane and lies within the parent's interval;
// args carry the explicit span/parent/job identifiers.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]chromeEvent, 0, len(t.spans))
	var origin time.Time
	for _, s := range t.spans {
		if origin.IsZero() || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	for i, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"span": i, "parent": s.Parent, "job": s.Job},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
