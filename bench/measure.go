package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// jobRec is one submitted job of a timed window.
type jobRec struct {
	start, end     time.Time
	ok             bool
	queue, service time.Duration
}

// numSlices is the number of consecutive parts a window's completions are cut
// into; cpi_per_s is the median of their rates, which one stolen time
// slice on a shared box cannot move.
const numSlices = 10

// window is the outcome of one timed closed-loop window.
type window struct {
	attempted, failed int
	// cpiPerS is the median slice rate of verified CPIs; rates holds the
	// slice rates.
	cpiPerS float64
	rates   []float64
	// latMs holds the submit-to-full-report times of the verified jobs,
	// ascending.
	latMs []float64
	recs  []jobRec
	// firstFailure describes the first failed job, for the log.
	firstFailure string
}

// runWindow drives the rig's submitters in a closed loop for d: each takes
// the next job of its share of the pool, submits it, waits for the full
// report and checks it against the serial reference before submitting
// again. A job that errors, is refused or differs from the reference is a
// failed job. With a tracer, every job leaves a root "job" span and a
// child span around the call into the program (plus the queue and service
// intervals, when the reply reports them).
func runWindow(r *rig, d time.Duration, tr *tracer) window {
	n := len(r.tg.submit)
	recs := make([][]jobRec, n)
	failures := make([]string, n)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				idx := (i + k*n) % len(r.pool)
				jb := r.pool[idx]
				t0 := time.Now()
				rep, err := r.tg.submit[i](jb.cpis)
				t1 := time.Now()
				rec := jobRec{start: t0, end: t1, queue: rep.queue, service: rep.service}
				diff := -1
				if err == nil {
					diff = firstDiff(rep.dets, jb.want)
				}
				rec.ok = err == nil && diff < 0
				if !rec.ok && failures[i] == "" {
					if err != nil {
						failures[i] = fmt.Sprintf("pool job %d: %v", idx, err)
					} else {
						failures[i] = fmt.Sprintf("pool job %d: CPI %d differs from the serial reference", idx, diff)
					}
				}
				recs[i] = append(recs[i], rec)
				if tr != nil {
					id := k*n + i
					root := tr.add("job", t0, time.Now(), -1, id, i)
					call := tr.add(r.tg.call, t0, t1, root, id, i)
					if rec.ok && rep.service > 0 {
						// The reply reports its server-side queue and service
						// durations but not where in the call they fell: centre
						// the residence, splitting the protocol time evenly
						// between the request and the response leg.
						q0 := t0.Add((t1.Sub(t0) - rep.queue - rep.service) / 2)
						tr.add("serve.queue", q0, q0.Add(rep.queue), call, id, i)
						tr.add("serve.service", q0.Add(rep.queue), q0.Add(rep.queue+rep.service), call, id, i)
					}
				}
			}
		}(i)
	}
	wg.Wait()

	var win window
	for i := range recs {
		win.recs = append(win.recs, recs[i]...)
		if win.firstFailure == "" {
			win.firstFailure = failures[i]
		}
	}
	sort.Slice(win.recs, func(a, b int) bool { return win.recs[a].end.Before(win.recs[b].end) })
	var ends []int64
	for _, rec := range win.recs {
		win.attempted++
		if !rec.ok {
			win.failed++
			continue
		}
		ends = append(ends, rec.end.UnixNano())
		win.latMs = append(win.latMs, millis(rec.end.Sub(rec.start)))
	}
	sort.Float64s(win.latMs)
	win.rates = sliceRates(start.UnixNano(), ends, r.w.jobCPIs, numSlices)
	win.cpiPerS = median(win.rates)
	return win
}

// memSample is the process-wide allocation and GC state at one instant.
type memSample struct {
	allocBytes, mallocs, pauseNs uint64
}

func sampleMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{ms.TotalAlloc, ms.Mallocs, ms.PauseTotalNs}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM). It
// returns 0 where /proc does not provide it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// endToEnd runs the untraced pass of one workload: `setups` set-ups (all
// but the last torn down straight after their warm-up), then one timed
// window. It returns the gated metrics first (cpi_per_s, job_p50_ms,
// setup_s) and the ungated companions after them.
func endToEnd(w workload, seed int64, d time.Duration) (window, []metric, error) {
	var setupS []float64
	var r *rig
	for i := 0; i < w.setups; i++ {
		if r != nil {
			r.tg.stop()
		}
		var took time.Duration
		var err error
		if r, took, err = setup(w, seed); err != nil {
			return window{}, nil, err
		}
		setupS = append(setupS, took.Seconds())
	}
	defer r.tg.stop()

	// Earlier set-ups left their job pools as garbage; collect it now so
	// the window's GC work is the program's own.
	runtime.GC()
	before := sampleMem()
	win := runWindow(r, d, nil)
	after := sampleMem()

	cpis := float64((win.attempted - win.failed) * w.jobCPIs)
	q1, q3 := quartiles(win.rates)
	tail := tailPercentile(len(win.latMs))
	ms := []metric{
		{"cpi_per_s", win.cpiPerS, "1/s"},
		{"job_p50_ms", percentile(win.latMs, 50), "ms"},
		{"setup_s", median(setupS), "s"},
		{"fail_frac", float64(win.failed) / float64(max(win.attempted, 1)), "ratio"},
		{"jobs_attempted", float64(win.attempted), "count"},
		{"jobs_failed", float64(win.failed), "count"},
		{"job_samples", float64(len(win.latMs)), "count"},
		{"job_tail_ms", percentile(win.latMs, tail), "ms"},
		{"job_tail_pct", tail, "%"},
		{"cpi_per_s_iqr_frac", safeDiv(q3-q1, win.cpiPerS), "ratio"},
		{"alloc_bytes_per_cpi", safeDiv(float64(after.allocBytes-before.allocBytes), cpis), "B"},
		{"allocs_per_cpi", safeDiv(float64(after.mallocs-before.mallocs), cpis), "count"},
		{"gc_pause_ms", float64(after.pauseNs-before.pauseNs) / 1e6, "ms"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
	}
	return win, ms, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
