// Command stapload is an open-loop load generator for stapd: it submits
// CPI-cube jobs at a fixed arrival rate over a pool of connections —
// without waiting for completions, so a saturated server sees true
// overload — and reports client-side goodput, busy rejections and
// end-to-end latency percentiles. With -check each accepted job's
// detections are verified against the serial reference processor. With
// -scrape the server's metrics endpoint is fetched and printed after the
// run, pairing the server's view with the client's.
//
// Usage:
//
//	stapload -addr localhost:7431 -rate 5 -jobs 50 -cpis 3
//	stapload -rate 20 -conns 8 -scrape http://localhost:7432/metrics
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pstap/internal/cube"
	"pstap/internal/obs"
	"pstap/internal/radar"
	"pstap/internal/serve"
	"pstap/internal/stap"
)

var (
	flagAddr     = flag.String("addr", "localhost:7431", "stapd address")
	flagRate     = flag.Float64("rate", 5, "job arrival rate (jobs/sec, open loop)")
	flagJobs     = flag.Int("jobs", 50, "total jobs to submit")
	flagCPIs     = flag.Int("cpis", 3, "CPIs per job")
	flagConns    = flag.Int("conns", 4, "client connections")
	flagSize     = flag.String("size", "small", "problem size: small | medium | paper (must match the server)")
	flagSeed     = flag.Int64("seed", 1, "scene random seed (must match the server for -check)")
	flagPool     = flag.Int("pool", 8, "distinct pre-generated jobs to cycle through")
	flagCheck    = flag.Bool("check", false, "verify detections against the serial reference")
	flagTrace    = flag.Bool("trace", false, "request a per-job Gantt trace (server must run with -tracedir)")
	flagScrape   = flag.String("scrape", "", "metrics URL to fetch and print after the run")
	flagRetries  = flag.Int("maxretries", 0, "retries per job on busy or transient failures (jittered exponential backoff, honoring the server's retry-after hint)")
	flagJSON     = flag.String("json", "", "write a machine-readable run report to this file ('-' for stdout)")
	flagDeadline = flag.Duration("deadline", 0, "per-job deadline, sent to the server and bounding client-side retries (0 disables)")
)

// statusLatency aggregates one final status code's outcomes: how many jobs
// ended with it and the client-side latency distribution of those jobs —
// rejections and failures cost wall time too, so every terminal status
// gets its own percentile row.
type statusLatency struct {
	Count   int64   `json:"count"`
	P50Ms   float64 `json:"p50_ms"`
	P95Ms   float64 `json:"p95_ms"`
	P99Ms   float64 `json:"p99_ms"`
	MaxMs   float64 `json:"max_ms"`
	MeanMs  float64 `json:"mean_ms"`
	Retried int64   `json:"retried,omitempty"`
}

// report is the -json run summary: the text output's numbers plus the
// per-status-code latency breakdown.
type report struct {
	Jobs        int     `json:"jobs"`
	CPIsPerJob  int     `json:"cpis_per_job"`
	Conns       int     `json:"conns"`
	OfferedRate float64 `json:"offered_rate_jobs_per_sec"`
	WallSec     float64 `json:"wall_sec"`
	GoodputJobs float64 `json:"goodput_jobs_per_sec"`
	GoodputCPIs float64 `json:"goodput_cpis_per_sec"`
	Completed   int64   `json:"completed"`
	Rejected    int64   `json:"rejected"`
	Failed      int64   `json:"failed"`
	// DeadlineExceeded counts jobs whose -deadline expired (their own
	// bucket — an expected outcome under overload, not a failure).
	DeadlineExceeded int64 `json:"deadline_exceeded,omitempty"`
	Mismatched       int64 `json:"mismatched,omitempty"`
	// ByStatus keys are terminal status codes ("ok", "busy",
	// "replica-lost", "timeout", ...; "transport" for connection-level
	// errors), each with its count and latency quantiles.
	ByStatus map[string]statusLatency `json:"by_status"`
}

// outcomes accumulates per-status terminal results during the run.
type outcomes struct {
	mu      sync.Mutex
	lats    map[string][]time.Duration
	retried map[string]int64
}

func newOutcomes() *outcomes {
	return &outcomes{lats: make(map[string][]time.Duration), retried: make(map[string]int64)}
}

// record notes one job's terminal status, latency and whether it needed
// retries.
func (o *outcomes) record(status string, d time.Duration, retried bool) {
	o.mu.Lock()
	o.lats[status] = append(o.lats[status], d)
	if retried {
		o.retried[status]++
	}
	o.mu.Unlock()
}

// byStatus folds the accumulated outcomes into the report rows.
func (o *outcomes) byStatus() map[string]statusLatency {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]statusLatency, len(o.lats))
	for status, lats := range o.lats {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum time.Duration
		for _, d := range lats {
			sum += d
		}
		out[status] = statusLatency{
			Count:   int64(len(lats)),
			P50Ms:   ms(obs.Quantile(lats, 0.50)),
			P95Ms:   ms(obs.Quantile(lats, 0.95)),
			P99Ms:   ms(obs.Quantile(lats, 0.99)),
			MaxMs:   ms(lats[len(lats)-1]),
			MeanMs:  ms(sum / time.Duration(len(lats))),
			Retried: o.retried[status],
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// statusOf names a submission outcome for the per-status breakdown.
func statusOf(err error) string {
	if err == nil {
		return serve.StatusOK.String()
	}
	var be *serve.BusyError
	if errors.As(err, &be) {
		return serve.StatusBusy.String()
	}
	var je *serve.JobError
	if errors.As(err, &je) {
		return je.Code.String()
	}
	return "transport"
}

func main() {
	flag.Parse()
	log.SetPrefix("stapload: ")
	log.SetFlags(0)

	p, err := radar.ParamsFor(*flagSize)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *flagRate <= 0 || *flagJobs <= 0 || *flagCPIs <= 0 || *flagConns <= 0 || *flagPool <= 0 {
		fmt.Fprintln(os.Stderr, "rate, jobs, cpis, conns and pool must be positive")
		os.Exit(2)
	}
	sc := radar.DefaultScene(p)
	sc.Seed = *flagSeed

	// Pre-generate a pool of distinct jobs so synthesis cost stays out of
	// the submission path; references are computed only under -check.
	log.Printf("generating %d jobs of %d CPIs (%dx%dx%d)...", *flagPool, *flagCPIs, p.K, p.J, p.N)
	jobs := make([][]*cube.Cube, *flagPool)
	var refs [][][]stap.Detection
	if *flagCheck {
		refs = make([][][]stap.Detection, *flagPool)
	}
	for i := range jobs {
		for k := 0; k < *flagCPIs; k++ {
			jobs[i] = append(jobs[i], sc.GenerateCPI(i*(*flagCPIs)+k))
		}
		if *flagCheck {
			pr := stap.NewProcessor(sc)
			for _, c := range jobs[i] {
				refs[i] = append(refs[i], pr.Process(c).Detections)
			}
		}
	}

	clients := make([]*serve.Client, *flagConns)
	for i := range clients {
		cl, err := serve.Dial(*flagAddr)
		if err != nil {
			log.Fatalf("dial %s: %v", *flagAddr, err)
		}
		clients[i] = cl
		defer cl.Close()
	}

	var (
		ok, retried, busy, failed, mismatched, deadlineExc atomic.Int64

		latMu sync.Mutex
		lats  []time.Duration
		wg    sync.WaitGroup
	)
	outc := newOutcomes()
	interval := time.Duration(float64(time.Second) / *flagRate)
	log.Printf("open loop: %d jobs at %.1f/s over %d conns", *flagJobs, *flagRate, *flagConns)
	start := time.Now()
	tick := time.NewTicker(interval)
	for n := 0; n < *flagJobs; n++ {
		if n > 0 {
			<-tick.C
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			ji := n % *flagPool
			t0 := time.Now()
			dets, traceFile, attempts, err := submitWithRetries(clients[n%*flagConns], jobs[ji])
			d := time.Since(t0)
			outc.record(statusOf(err), d, attempts > 0)
			switch err.(type) {
			case nil:
				ok.Add(1)
				if attempts > 0 {
					retried.Add(1)
				}
				latMu.Lock()
				lats = append(lats, d)
				latMu.Unlock()
				if *flagCheck && !sameAsRef(dets, refs[ji]) {
					mismatched.Add(1)
				}
				if traceFile != "" {
					log.Printf("job %d: trace written to %s", n, traceFile)
				}
			case *serve.BusyError:
				busy.Add(1)
			default:
				var je *serve.JobError
				if errors.As(err, &je) && je.Code == serve.StatusDeadlineExceeded {
					deadlineExc.Add(1)
				} else {
					failed.Add(1)
					log.Printf("job %d: %v", n, err)
				}
			}
		}(n)
	}
	tick.Stop()
	wg.Wait()
	wall := time.Since(start)

	fmt.Printf("\nsubmitted   %8d jobs in %v (offered %.2f/s)\n", *flagJobs, wall.Round(time.Millisecond),
		float64(*flagJobs)/wall.Seconds())
	fmt.Printf("completed   %8d (goodput %.2f jobs/s, %.2f CPI/s)\n", ok.Load(),
		float64(ok.Load())/wall.Seconds(), float64(ok.Load()*int64(*flagCPIs))/wall.Seconds())
	if *flagRetries > 0 {
		fmt.Printf("retried     %8d (completed after >= 1 retry)\n", retried.Load())
	}
	fmt.Printf("rejected    %8d (busy backpressure, retries exhausted)\n", busy.Load())
	if *flagDeadline > 0 {
		fmt.Printf("deadline    %8d (exceeded %v)\n", deadlineExc.Load(), *flagDeadline)
	}
	fmt.Printf("failed      %8d\n", failed.Load())
	if *flagCheck {
		fmt.Printf("mismatched  %8d (vs serial reference)\n", mismatched.Load())
	}
	latMu.Lock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		fmt.Printf("latency     p50 %v  p95 %v  p99 %v  max %v\n",
			q(lats, 0.50), q(lats, 0.95), q(lats, 0.99), lats[len(lats)-1].Round(time.Microsecond))
	}
	latMu.Unlock()

	byStatus := outc.byStatus()
	statuses := make([]string, 0, len(byStatus))
	for s := range byStatus {
		statuses = append(statuses, s)
	}
	sort.Strings(statuses)
	fmt.Printf("by status:\n")
	for _, s := range statuses {
		row := byStatus[s]
		fmt.Printf("  %-12s %6d  p50 %8.2fms  p95 %8.2fms  p99 %8.2fms  max %8.2fms\n",
			s, row.Count, row.P50Ms, row.P95Ms, row.P99Ms, row.MaxMs)
	}

	if *flagJSON != "" {
		rep := report{
			Jobs:             *flagJobs,
			CPIsPerJob:       *flagCPIs,
			Conns:            *flagConns,
			OfferedRate:      *flagRate,
			WallSec:          wall.Seconds(),
			GoodputJobs:      float64(ok.Load()) / wall.Seconds(),
			GoodputCPIs:      float64(ok.Load()*int64(*flagCPIs)) / wall.Seconds(),
			Completed:        ok.Load(),
			Rejected:         busy.Load(),
			Failed:           failed.Load(),
			DeadlineExceeded: deadlineExc.Load(),
			Mismatched:       mismatched.Load(),
			ByStatus:         byStatus,
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("json report: %v", err)
		}
		data = append(data, '\n')
		if *flagJSON == "-" {
			os.Stdout.Write(data)
		} else if werr := os.WriteFile(*flagJSON, data, 0o644); werr != nil {
			log.Fatalf("json report: %v", werr)
		} else {
			log.Printf("json report written to %s", *flagJSON)
		}
	}

	if *flagScrape != "" {
		resp, err := http.Get(*flagScrape)
		if err != nil {
			log.Fatalf("scrape %s: %v", *flagScrape, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		fmt.Printf("\nserver metrics (%s):\n%s", *flagScrape, body)
	}
	if mismatched.Load() > 0 || failed.Load() > 0 {
		os.Exit(1)
	}
}

// submit sends one job, requesting a trace when -trace is set and
// stamping the remaining client-side deadline budget (expiry) when
// -deadline is set, and maps the reply the same way Client.Submit does.
func submit(cl *serve.Client, cpis []*cube.Cube, expiry time.Time) ([][]stap.Detection, string, error) {
	if !*flagTrace && expiry.IsZero() {
		dets, err := cl.Submit(cpis)
		return dets, "", err
	}
	req := &serve.Request{CPIs: cpis, Trace: *flagTrace}
	if !expiry.IsZero() {
		left := time.Until(expiry).Milliseconds()
		if left < 1 {
			left = 1 // expired already; let the server say so
		}
		req.DeadlineMs = left
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, "", err
	}
	switch resp.Status {
	case serve.StatusOK:
		return resp.Detections, resp.TraceFile, nil
	case serve.StatusBusy:
		return nil, "", &serve.BusyError{RetryAfter: time.Duration(resp.RetryAfterMs) * time.Millisecond}
	default:
		return nil, "", &serve.JobError{Code: resp.Status, Msg: resp.Err}
	}
}

// submitWithRetries wraps submit with up to -maxretries retries on busy
// rejections and transient infrastructure failures (replica lost,
// timeout), backing off exponentially with jitter and never less than the
// server's retry-after hint. With -deadline the retry loop stops as soon
// as the job's client-side deadline has passed — a late success is as
// useless as a failure. It returns how many retries the job needed.
func submitWithRetries(cl *serve.Client, cpis []*cube.Cube) ([][]stap.Detection, string, int, error) {
	var expiry time.Time
	if *flagDeadline > 0 {
		expiry = time.Now().Add(*flagDeadline)
	}
	backoff := 10 * time.Millisecond
	for attempt := 0; ; attempt++ {
		dets, traceFile, err := submit(cl, cpis, expiry)
		if err == nil || attempt >= *flagRetries || !retryable(err) {
			return dets, traceFile, attempt, err
		}
		d := backoff
		var be *serve.BusyError
		if errors.As(err, &be) && be.RetryAfter > d {
			d = be.RetryAfter
		}
		d += time.Duration(rand.Int63n(int64(d)/2 + 1)) // up to +50% jitter
		if !expiry.IsZero() && !time.Now().Add(d).Before(expiry) {
			return dets, traceFile, attempt, err
		}
		time.Sleep(d)
		backoff *= 2
	}
}

// retryable reports whether a submission error is worth retrying: busy
// backpressure and transient replica failures are; bad requests and
// shutdown are not.
func retryable(err error) bool {
	var be *serve.BusyError
	if errors.As(err, &be) {
		return true
	}
	var je *serve.JobError
	if errors.As(err, &je) {
		return je.Code == serve.StatusReplicaLost || je.Code == serve.StatusTimeout
	}
	return false
}

// q returns the q-quantile of sorted latencies (nearest rank).
func q(sorted []time.Duration, p float64) time.Duration {
	return obs.Quantile(sorted, p).Round(time.Microsecond)
}

// sameAsRef compares a job's served detections with the serial reference.
func sameAsRef(got, want [][]stap.Detection) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range want[i] {
			a, b := got[i][j], want[i][j]
			if a.Range != b.Range || a.DopplerBin != b.DopplerBin || a.Beam != b.Beam {
				return false
			}
		}
	}
	return true
}
