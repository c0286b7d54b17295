// Command stapd runs the STAP pipeline as a network service: it listens
// on TCP for CPI-cube jobs (flat internal/wire frames: a versioned header,
// then the cubes' samples as float64 bit patterns; see internal/serve),
// processes them on a pool of persistent warm pipeline replicas, and
// streams detection reports back. A bounded admission queue
// pushes back with busy/retry-after replies when the replicas fall behind
// — the daemon never buffers without bound.
//
// The metrics HTTP listener exposes the full observability surface:
// /metrics (JSON snapshot), /metrics.prom (Prometheus text exposition with
// the live paper eq. 1-3 gauges plus federated stapd_node_* series and
// cluster-merged stapd_cluster_* gauges when distributed), /trace.json
// (Perfetto-loadable Chrome trace of the replicas' recent spans),
// /cluster/trace.json (the clock-corrected merged cross-node trace),
// /plan (the placement planner's current-vs-recommended report, see
// internal/plan), /bottlenecks.json (the per-CPI critical-path
// attribution report staptop renders live), /history.json (the embedded
// ring time-series store: 1 s samples with 10 s / 60 s rollup tiers,
// range-queried via ?series=/?prefix=/?tier=/?last= and federated from
// stapnodes clock-corrected with ?node=<slot>/<member>), /alerts.json
// (the SLO engine's burn-rate alert state when -slofile is set) and
// /debug/pprof (Go profiles). The trace endpoints gzip their payloads
// when the client accepts it.
//
// A signed plan file from stapplan can drive the whole configuration:
// -planfile adopts its worker assignment and, when the file names
// stapnode addresses, builds the distributed cluster from them. With
// -replan the daemon re-optimizes the placement online from observed
// timings (a 2 s pass) and rolls distributed replicas onto it when the
// observed period drifts 25% from the model's prediction.
//
// A signed SLO file from stapslo (-slofile, requires -distsecret for the
// signature) arms the burn-rate alert engine over the history store:
// each objective (eq.-2 latency bound, eq.-1 throughput floor, P_d
// floor, link RTT ceiling) is evaluated as fast/slow multi-window burn
// rates, surfaced on /alerts.json and as stapd_slo_* Prometheus
// families, and a breach dumps a flight record with the lead-up history
// embedded. With -replan a firing latency or throughput alert also
// arms a roll, beside the drift trigger.
//
// Usage:
//
//	stapd -listen :7431 -metrics :7432 -size small -replicas 2
//	stapd -nodes 4,2,4,2,2,4,2 -queue 8 -tracedir /tmp/traces
//	stapd -replicas 0 -distnodes host1:7441,host2:7441 -distsecret s -placement 0-2/3-6
//	stapd -replicas 0 -planfile plan.json -distsecret s -replan
//
// Stop with SIGINT/SIGTERM; in-flight jobs drain within -drain, then a
// final metrics snapshot goes to stderr (and a final trace to -tracedir
// when set) before exit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pstap/internal/dist"
	"pstap/internal/fault"
	"pstap/internal/obs"
	"pstap/internal/pipeline"
	"pstap/internal/plan"
	"pstap/internal/radar"
	"pstap/internal/serve"
	"pstap/internal/slo"
)

var (
	flagListen   = flag.String("listen", ":7431", "job service listen address")
	flagMetrics  = flag.String("metrics", ":7432", "metrics HTTP listen address (empty disables)")
	flagNodes    = flag.String("nodes", "2,1,2,1,1,2,1", "worker counts for the 7 tasks of each replica")
	flagSize     = flag.String("size", "small", "problem size: small | medium | paper")
	flagSeed     = flag.Int64("seed", 1, "scene random seed")
	flagReplicas = flag.Int("replicas", 1, "pipeline replicas (warm instances)")
	flagQueue    = flag.Int("queue", 0, "admission queue depth (0 = 2 per replica)")
	flagWindow   = flag.Int("window", 0, "per-replica flow-control window (0 = default)")
	flagThreads  = flag.Int("threads", 1, "threads per worker")
	flagTraceDir = flag.String("tracedir", "", "directory for per-job traces (empty disables)")
	flagDrain    = flag.Duration("drain", 30*time.Second, "graceful shutdown deadline")
	flagObsWin   = flag.Int("obswindow", obs.DefaultWindow, "live gauge window in CPIs")
	flagSlowMult = flag.Float64("slowmult", 0, "log worker spans slower than this multiple of the task median (0 disables)")

	flagDistNodes  = flag.String("distnodes", "", "comma-separated stapnode addresses forming one distributed replica (empty disables)")
	flagPlacement  = flag.String("placement", "", "task ranges per stapnode, e.g. '0-2/3-6' (empty = even split)")
	flagDistSecret = flag.String("distsecret", "", "shared cluster secret for -distnodes (required with it)")

	flagPlanFile = flag.String("planfile", "", "signed stapplan file to adopt: assignment, and cluster when it names nodes (requires -distsecret, excludes -nodes/-distnodes)")
	flagReplan   = flag.Bool("replan", false, "re-optimize placement online and roll distributed replicas when the model drifts or a latency/throughput SLO fires")

	flagSLOFile = flag.String("slofile", "", "signed stapslo file declaring SLOs to evaluate as burn-rate alerts (requires -distsecret)")

	flagCPITimeout = flag.Duration("cpitimeout", 0, "per-CPI processing deadline; a stalled replica is reaped and recycled (0 disables)")
	flagFaultPlan  = flag.String("faultplan", "", "fault injection plan, e.g. 'doppler:0:3:panic; cfar:*:*:slow(10ms)*@0.1' (see internal/fault)")
	flagFaultSeed  = flag.Int64("faultseed", 1, "seed for probabilistic fault rules")
	flagRestarts   = flag.Int("restartbudget", 0, "max automatic restarts per replica slot (0 = default 5)")
	flagBackoff    = flag.Duration("restartbackoff", 0, "base delay before restarting a dead replica, doubling per restart (0 = default 50ms)")
	flagFlightDir  = flag.String("flightdir", "", "directory for fault flight records, the newest 16 kept (empty disables)")

	flagFailover       = flag.Int("failoverbudget", 0, "max re-dispatches of one job after its replica dies (0 = default 2, negative disables)")
	flagBreakerTrip    = flag.Int("breakerthreshold", 0, "consecutive fatal faults opening a slot's dispatch breaker (0 = default 3)")
	flagBreakerCool    = flag.Duration("breakercooldown", 0, "open-breaker cooldown before a half-open probe (0 = default 1s)")
	flagFallbackInproc = flag.Bool("fallbackinproc", false, "backfill a dist slot whose restart budget is exhausted with a warm in-process replica")
)

func parseNodes(s string) (pipeline.Assignment, error) {
	parts := strings.Split(s, ",")
	var a pipeline.Assignment
	if len(parts) != pipeline.NumTasks {
		return a, fmt.Errorf("-nodes needs %d counts, got %d", pipeline.NumTasks, len(parts))
	}
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return a, fmt.Errorf("bad node count: %v", err)
		}
		a[i] = n
	}
	return a, nil
}

func main() {
	flag.Parse()
	log.SetPrefix("stapd: ")
	log.SetFlags(log.Ldate | log.Ltime)

	p, err := radar.ParamsFor(*flagSize)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	a, err := parseNodes(*flagNodes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sc := radar.DefaultScene(p)
	sc.Seed = *flagSeed

	var fplan *fault.Plan
	if *flagFaultPlan != "" {
		fplan, err = fault.ParsePlan(*flagFaultPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		log.Printf("fault injection armed: %s (seed %d)", fplan, *flagFaultSeed)
	}

	// The distributed replica's nodes and placement come from a signed
	// plan file (which also supplies the assignment, and names nodes or
	// not) or from -distnodes/-placement, and feed one ClusterConfig.
	var distNodes []string
	var placement dist.Placement
	if *flagPlanFile != "" {
		if *flagDistSecret == "" {
			fmt.Fprintln(os.Stderr, "-planfile requires -distsecret (verifies the plan signature)")
			os.Exit(2)
		}
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		for _, name := range []string{"nodes", "distnodes", "placement"} {
			if explicit[name] {
				fmt.Fprintf(os.Stderr, "-planfile and -%s are mutually exclusive: the plan file supplies it\n", name)
				os.Exit(2)
			}
		}
		pf, perr := plan.ReadFile(*flagPlanFile)
		if perr != nil {
			fmt.Fprintln(os.Stderr, perr)
			os.Exit(2)
		}
		if !pf.Verify([]byte(*flagDistSecret)) {
			fmt.Fprintf(os.Stderr, "plan file %s does not verify under -distsecret\n", *flagPlanFile)
			os.Exit(2)
		}
		if a, err = pf.Assignment(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if placement, err = pf.ParsedPlacement(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		distNodes = pf.Nodes
		log.Printf("plan %s adopted: assign %s, predicted period %.6fs",
			*flagPlanFile, a, pf.Predicted.PeriodSec)
	} else if *flagDistNodes != "" {
		if *flagDistSecret == "" {
			fmt.Fprintln(os.Stderr, "-distnodes requires -distsecret")
			os.Exit(2)
		}
		distNodes = strings.Split(*flagDistNodes, ",")
		for i := range distNodes {
			distNodes[i] = strings.TrimSpace(distNodes[i])
		}
		if placement, err = dist.ParsePlacement(*flagPlacement, len(distNodes)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	// A signed SLO file arms the burn-rate alert engine. The signature
	// check uses the same cluster secret as the plan file: the document
	// that decides when the cluster pages needs the same provenance proof
	// as the one that decides where it runs.
	var sloSpecs []slo.Spec
	if *flagSLOFile != "" {
		if *flagDistSecret == "" {
			fmt.Fprintln(os.Stderr, "-slofile requires -distsecret (verifies the SLO signature)")
			os.Exit(2)
		}
		sf, serr := slo.ReadFile(*flagSLOFile)
		if serr != nil {
			fmt.Fprintln(os.Stderr, serr)
			os.Exit(2)
		}
		if !sf.Verify([]byte(*flagDistSecret)) {
			fmt.Fprintf(os.Stderr, "SLO file %s does not verify under -distsecret\n", *flagSLOFile)
			os.Exit(2)
		}
		if serr := sf.Validate(); serr != nil {
			fmt.Fprintln(os.Stderr, serr)
			os.Exit(2)
		}
		sloSpecs = sf.SLOs
		log.Printf("SLO file %s adopted: %d objectives armed", *flagSLOFile, len(sloSpecs))
	}

	var clusters []dist.ClusterConfig
	if len(distNodes) > 0 {
		clusters = append(clusters, dist.ClusterConfig{
			Name:      "dist0",
			Nodes:     distNodes,
			Placement: placement,
			Secret:    []byte(*flagDistSecret),
			FaultPlan: *flagFaultPlan,
			Seed:      *flagFaultSeed,
		})
		// Connect logs the live placement with the manifest signature
		// prefix; logging it here too would just duplicate the spec.
		log.Printf("distributed replica: %d stapnodes configured", len(distNodes))
	}

	srv, err := serve.New(serve.Config{
		Scene:            sc,
		Assign:           a,
		Replicas:         *flagReplicas,
		DistClusters:     clusters,
		QueueDepth:       *flagQueue,
		Window:           *flagWindow,
		Threads:          *flagThreads,
		TraceDir:         *flagTraceDir,
		ObsWindow:        *flagObsWin,
		SlowMultiple:     *flagSlowMult,
		CPITimeout:       *flagCPITimeout,
		FaultPlan:        fplan,
		FaultSeed:        *flagFaultSeed,
		RestartBudget:    *flagRestarts,
		RestartBackoff:   *flagBackoff,
		FlightDir:        *flagFlightDir,
		FailoverBudget:   *flagFailover,
		BreakerThreshold: *flagBreakerTrip,
		BreakerCooldown:  *flagBreakerCool,
		FallbackInproc:   *flagFallbackInproc,
		Replan:           *flagReplan,
		SLOs:             sloSpecs,
		Logf:             log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(*flagListen); err != nil {
		log.Fatal(err)
	}
	log.Printf("scene %s (%dx%dx%d), %d replicas x %d workers",
		*flagSize, p.K, p.J, p.N, *flagReplicas, a.Total())

	if *flagMetrics != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.Metrics().Handler())
		mux.Handle("/metrics.prom", srv.PromHandler())
		mux.Handle("/trace.json", srv.TraceHandler())
		mux.Handle("/cluster/trace.json", srv.ClusterTraceHandler())
		mux.Handle("/plan", srv.PlanHandler())
		mux.Handle("/bottlenecks.json", srv.BottlenecksHandler())
		mux.Handle("/history.json", srv.HistoryHandler())
		mux.Handle("/alerts.json", srv.AlertsHandler())
		// net/http/pprof registers only on http.DefaultServeMux; mount the
		// same profiles on this mux explicitly.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*flagMetrics, mux); err != nil {
				log.Printf("metrics endpoint: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/metrics (.prom for Prometheus, /trace.json for Perfetto, /plan for the planner, /bottlenecks.json for attribution, /history.json for time series, /alerts.json for SLO alerts, /debug/pprof for profiles)", *flagMetrics)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("signal received, draining (deadline %v)", *flagDrain)
	ctx, cancel := context.WithTimeout(context.Background(), *flagDrain)
	defer cancel()
	err = srv.Shutdown(ctx)

	// Flush the final observability state: the JSON metrics snapshot to
	// stderr, and (when tracing) a last merged Perfetto trace to disk, so
	// the run's telemetry survives the daemon.
	enc := json.NewEncoder(os.Stderr)
	enc.SetIndent("", "  ")
	if eerr := enc.Encode(srv.Metrics().Snapshot()); eerr != nil {
		log.Printf("final snapshot: %v", eerr)
	}
	if *flagTraceDir != "" {
		name := filepath.Join(*flagTraceDir, "final.trace.json")
		if f, ferr := os.Create(name); ferr != nil {
			log.Printf("final trace: %v", ferr)
		} else {
			werr := srv.WriteTrace(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				log.Printf("final trace: %v", werr)
			} else {
				log.Printf("final trace written to %s", name)
			}
		}
	}
	if err != nil {
		log.Fatalf("shutdown: %v", err)
	}
}
