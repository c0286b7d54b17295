package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Hand-rolled Prometheus text exposition (format version 0.0.4) — enough
// for any Prometheus-compatible scraper without taking a dependency.

// Label is one name="value" pair on a sample.
type Label struct {
	Name, Value string
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// PromWriter emits exposition lines; WriteFamilies is the one caller of
// Head, so a family's preamble is written exactly once.
type PromWriter struct {
	W io.Writer
}

// Head writes the # HELP / # TYPE preamble of a metric.
func (p PromWriter) Head(name, typ, help string) {
	fmt.Fprintf(p.W, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample line.
func (p PromWriter) Sample(name string, labels []Label, v float64) {
	if len(labels) == 0 {
		fmt.Fprintf(p.W, "%s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
		return
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Name, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	fmt.Fprintf(p.W, "%s %s\n", b.String(), strconv.FormatFloat(v, 'g', -1, 64))
}

// Family is one row of a process's metric table — a metric declared
// once: what it is called on the Prometheus page (Name, Type, Help), what
// it is called in a history store (Series, a template over the row's
// label values such as "r{replica}/link/m{member}/rtt_seconds"), and
// where its samples come from (Collect). An empty Series is the decision
// that a row is scrape-only — per-worker counters, histograms, per-hop
// rows — not an omission. A histogram row's Collect emits raw
// observations in seconds; the exposition renderer buckets them. Rows
// that share a Name (one per replica, per link, per quantile) are one
// Prometheus family and must agree on Type and Help.
type Family struct {
	Name, Type, Help string
	Series           string
	Collect          func(emit func(labels []Label, v float64))
}

// Sample is the row of one sample whose value is already read.
func Sample(name, typ, help, series string, labels []Label, v float64) Family {
	return Family{Name: name, Type: typ, Help: help, Series: series,
		Collect: func(emit func([]Label, float64)) { emit(labels, v) }}
}

// WriteFamilies renders a table as Prometheus exposition text: one head
// per Name, in order of first appearance, over all the rows sharing it.
func WriteFamilies(w io.Writer, fams []Family) {
	p := PromWriter{W: w}
	seen := make(map[string]bool)
	for i, f := range fams {
		if seen[f.Name] {
			continue
		}
		seen[f.Name] = true
		p.Head(f.Name, f.Type, f.Help)
		for _, row := range fams[i:] {
			switch {
			case row.Name != f.Name:
			case row.Type == "histogram":
				writeHistogram(p, row)
			default:
				row.Collect(func(labels []Label, v float64) { p.Sample(row.Name, labels, v) })
			}
		}
	}
}

// ObserveFamilies renders a table into a history store: every sample of
// every family that has a Series goes to observe under the expanded
// series name. A sample missing a label the template names is skipped.
func ObserveFamilies(fams []Family, observe func(series string, v float64)) {
	for _, f := range fams {
		if f.Series == "" {
			continue
		}
		f.Collect(func(labels []Label, v float64) {
			if name, ok := expandSeries(f.Series, labels); ok {
				observe(name, v)
			}
		})
	}
}

// expandSeries substitutes each {label} of a series template; ok is false
// when a placeholder is left with no label to fill it.
func expandSeries(tmpl string, labels []Label) (string, bool) {
	for _, l := range labels {
		tmpl = strings.ReplaceAll(tmpl, "{"+l.Name+"}", l.Value)
	}
	return tmpl, !strings.Contains(tmpl, "{")
}

// histBuckets are the histogram upper bounds in seconds — exponential
// decades from 100µs, wide enough for the paper-size scenes and the
// small test scenes alike.
var histBuckets = []float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// writeHistogram buckets a histogram row's observations per label set
// and writes the _bucket/_sum/_count samples.
func writeHistogram(p PromWriter, f Family) {
	type hist struct {
		labels []Label
		counts []int
		sum    float64
	}
	byKey := map[string]*hist{}
	var order []*hist
	f.Collect(func(labels []Label, v float64) {
		key := fmt.Sprint(labels)
		h := byKey[key]
		if h == nil {
			h = &hist{labels: labels, counts: make([]int, len(histBuckets)+1)}
			byKey[key] = h
			order = append(order, h)
		}
		h.sum += v
		h.counts[sort.SearchFloat64s(histBuckets, v)]++
	})
	for _, h := range order {
		cum := 0
		for i, c := range h.counts {
			cum += c
			le := "+Inf"
			if i < len(histBuckets) {
				le = strconv.FormatFloat(histBuckets[i], 'g', -1, 64)
			}
			p.Sample(f.Name+"_bucket", with(h.labels, Label{"le", le}), float64(cum))
		}
		p.Sample(f.Name+"_sum", h.labels, h.sum)
		p.Sample(f.Name+"_count", h.labels, float64(cum))
	}
}

// with copies base and appends more, so shared base slices are never
// aliased.
func with(base []Label, more ...Label) []Label {
	out := make([]Label, len(base), len(base)+len(more))
	copy(out, base)
	return append(out, more...)
}
