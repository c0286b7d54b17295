// Command stapnode is the distributed STAP worker agent: it listens for
// a coordinator's signed placement manifest (see internal/dist), hosts
// the contiguous pipeline task range the manifest assigns it for the
// session's lifetime, then returns to listening for the next session.
// Scene, worker assignment and fault plan all arrive in the manifest —
// the agent itself is configured with nothing but a listen address and
// the shared cluster secret.
//
// Usage:
//
//	stapnode -listen :7441 -secret swordfish
//	stapnode -listen :7441 -secret s -obs :7443 -name node1 -flightdir /tmp/fr
//
// With -obs, the agent serves its telemetry over HTTP: /metrics.prom
// (Prometheus exposition of the session collector), /snapshot.json (the
// raw span journal, wire-cost journal and link state stapd federates),
// /trace.json (a per-node Perfetto trace, gzip when accepted),
// /bottlenecks.json (the node-local attribution report), /history.json
// (the node-local ring time-series store — 1 s gauge and link samples
// with 10 s / 60 s rollups, which stapd federates clock-corrected into
// its own /history.json) and /debug/pprof. The obs address is advertised
// to the coordinator on the ready frame. With -flightdir, a session that
// dies of a fault dumps a flight record there; the newest 16 are kept.
//
// A link has no flow control of its own: the session's in-flight window
// (the coordinator's, shipped in the manifest) bounds what it carries and
// sizes the memory its data decodes into, and TCP does the rest.
//
// A stapd with matching -distnodes/-distsecret flags (or any
// dist.ClusterConfig) drives a set of these agents as one pipeline
// replica. Stop with SIGINT/SIGTERM; a live session is aborted, the
// coordinator sees the loss through its link, and the final telemetry
// snapshot and trace are flushed to -flightdir (when set) before exit.
package main

import (
	"encoding/json"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"pstap/internal/dist"
	"pstap/internal/obs"
)

var (
	flagListen    = flag.String("listen", ":7441", "agent listen address")
	flagSecret    = flag.String("secret", "", "shared cluster secret (must match the coordinator)")
	flagObs       = flag.String("obs", "", "telemetry HTTP listen address (empty disables)")
	flagName      = flag.String("name", "", "node label in traces and flight records (default: listen address)")
	flagObsWin    = flag.Int("obswindow", obs.DefaultWindow, "live gauge window in CPIs")
	flagFlightDir = flag.String("flightdir", "", "directory for fault flight records and the final telemetry flush (empty disables)")
)

func main() {
	flag.Parse()
	log.SetPrefix("stapnode: ")
	log.SetFlags(log.Ldate | log.Ltime)
	if *flagSecret == "" {
		log.Fatal("-secret is required")
	}

	ln, err := net.Listen("tcp", *flagListen)
	if err != nil {
		log.Fatal(err)
	}
	node := dist.NewNode(ln, dist.NodeConfig{
		Secret:    []byte(*flagSecret),
		Logf:      log.Printf,
		Name:      *flagName,
		ObsAddr:   *flagObs,
		ObsWindow: *flagObsWin,
		FlightDir: *flagFlightDir,
	})
	log.Printf("listening on %v", ln.Addr())

	if *flagObs != "" {
		go func() {
			if err := http.ListenAndServe(*flagObs, node.ObsMux()); err != nil {
				log.Printf("obs endpoint: %v", err)
			}
		}()
		log.Printf("telemetry on http://%s/metrics.prom (/snapshot.json, /trace.json, /bottlenecks.json, /debug/pprof)", *flagObs)
	}

	done := make(chan error, 1)
	go func() { done <- node.Serve() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		log.Printf("signal received, shutting down")
		node.Close()
		<-done
		flushFinal(node)
	case err := <-done:
		if err != nil {
			log.Fatal(err)
		}
	}
}

// flushFinal writes the last session's telemetry snapshot and trace into
// -flightdir on orderly shutdown, so a node's view of its final session
// survives the process.
func flushFinal(node *dist.Node) {
	if *flagFlightDir == "" {
		return
	}
	if err := os.MkdirAll(*flagFlightDir, 0o755); err != nil {
		log.Printf("final flush: %v", err)
		return
	}
	snapName := filepath.Join(*flagFlightDir, "stapnode-final.snapshot.json")
	data, err := json.MarshalIndent(node.Snapshot(), "", "  ")
	if err == nil {
		err = os.WriteFile(snapName, data, 0o644)
	}
	if err != nil {
		log.Printf("final snapshot: %v", err)
	} else {
		log.Printf("final snapshot written to %s", snapName)
	}
	col := node.Collector()
	if col == nil {
		return
	}
	traceName := filepath.Join(*flagFlightDir, "stapnode-final.trace.json")
	f, err := os.Create(traceName)
	if err != nil {
		log.Printf("final trace: %v", err)
		return
	}
	werr := obs.WriteChromeTrace(f, col.Journal(), col.Tasks())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		log.Printf("final trace: %v", werr)
	} else {
		log.Printf("final trace written to %s", traceName)
	}
}
