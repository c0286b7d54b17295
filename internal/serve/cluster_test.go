package serve

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/dist"
	"pstap/internal/leakcheck"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
)

// startObsNode launches one in-process stapnode agent with a telemetry
// HTTP listener and a flight-record directory.
func startObsNode(t *testing.T, secret []byte, name, flightDir string) (*dist.Node, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	obsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := dist.NewNode(ln, dist.NodeConfig{
		Secret:    secret,
		Logf:      t.Logf,
		Name:      name,
		ObsAddr:   obsLn.Addr().String(),
		FlightDir: flightDir,
	})
	go node.Serve()
	hs := &http.Server{Handler: node.ObsMux()}
	go hs.Serve(obsLn)
	t.Cleanup(func() { hs.Close() })
	return node, ln.Addr().String()
}

// flightRecords lists the flightrec-*.json files under dir.
func flightRecords(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "flightrec-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// waitForFlightRecord polls dir until it holds more than base flight
// records and returns the newest.
func waitForFlightRecord(t *testing.T, dir, who string, base int) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if recs := flightRecords(t, dir); len(recs) > base {
			return recs[len(recs)-1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("no new flight record from %s appeared in %s", who, dir)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestClusterFederationAndFlightRecorder drives the full cluster
// observability loop: stapd federates both stapnodes' telemetry into
// per-node prom series and cluster-merged gauges, serves a merged trace
// with spans from both nodes, and — when a node is killed — both the
// surviving node and stapd dump flight records.
func TestClusterFederationAndFlightRecorder(t *testing.T) {
	leakcheck.Check(t)
	secret := []byte("serve-fed-secret")
	sc := radar.DefaultScene(radar.Small())
	nodeFlight1, nodeFlight2 := t.TempDir(), t.TempDir()
	stapdFlight := t.TempDir()
	node1, addr1 := startObsNode(t, secret, "node1", nodeFlight1)
	node2, addr2 := startObsNode(t, secret, "node2", nodeFlight2)
	t.Cleanup(func() { node1.Close(); node2.Close() })
	placement, err := dist.ParsePlacement("0-2/3-6", 2)
	if err != nil {
		t.Fatal(err)
	}

	s := startServer(t, Config{
		Scene:  sc,
		Assign: pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1),
		DistClusters: []dist.ClusterConfig{{
			Name:      "c0",
			Nodes:     []string{addr1, addr2},
			Placement: placement,
			Secret:    secret,
			// Generous heartbeat: under -race the workers can starve the
			// ping goroutines long enough to trip a tighter miss limit.
			Heartbeat: 200 * time.Millisecond,
		}},
		CPITimeout:     20 * time.Second,
		RetryAfter:     5 * time.Millisecond,
		RestartBudget:  3,
		RestartBackoff: 10 * time.Millisecond,
		FlightDir:      stapdFlight,
	})
	t.Cleanup(func() { s.Shutdown(context.Background()) })

	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var cpis []*cube.Cube
	for i := 0; i < 6; i++ {
		cpis = append(cpis, sc.GenerateCPI(i))
	}
	submitRecover(t, cl, cpis)

	// The federation poller (1s interval) must surface both nodes as up
	// and compute a nonzero merged eq. (1) gauge from their journals.
	var body string
	deadline := time.Now().Add(10 * time.Second)
	for {
		var buf bytes.Buffer
		s.WritePrometheus(&buf)
		body = buf.String()
		if federationLive(body) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("federation never surfaced both nodes with live gauges:\n%s", body)
		}
		time.Sleep(100 * time.Millisecond)
	}
	for _, want := range []string{
		`stapd_node_up{replica="0",node="1"} 1`,
		`stapd_node_up{replica="0",node="2"} 1`,
		`stapd_node_clock_offset_seconds{replica="0",node="1"}`,
		`stapd_node_cpis_total{replica="0",node="2"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The merged trace carries spans from both nodes under their
	// replica/member prefixes.
	var trace bytes.Buffer
	if err := s.WriteClusterTrace(&trace); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"r0/n1/`, `"r0/n2/`, `"trace"`} {
		if !strings.Contains(trace.String(), want) {
			t.Errorf("cluster trace missing %s", want)
		}
	}

	// Kill node 2: the next job loses the replica; the surviving node and
	// stapd both dump flight records.
	nodeBase, stapdBase := len(flightRecords(t, nodeFlight1)), len(flightRecords(t, stapdFlight))
	node2.Kill()
	_, err = cl.Submit(cpis[:1])
	var je *JobError
	var be *BusyError
	if err == nil || (!errors.As(err, &je) && !errors.As(err, &be)) {
		t.Fatalf("post-kill submit: err = %v, want JobError or BusyError", err)
	}
	nodeRec := waitForFlightRecord(t, nodeFlight1, "node1", nodeBase)
	stapdRec := waitForFlightRecord(t, stapdFlight, "stapd", stapdBase)
	for _, rec := range []string{nodeRec, stapdRec} {
		data, rerr := os.ReadFile(rec)
		if rerr != nil {
			t.Fatal(rerr)
		}
		for _, want := range []string{`"reason"`, `"events"`, `"links"`} {
			if !strings.Contains(string(data), want) {
				t.Errorf("%s missing %s field", rec, want)
			}
		}
	}
}

// federationLive reports whether the exposition shows both nodes up and
// a nonzero cluster eq. (1) throughput for slot 0.
func federationLive(body string) bool {
	if !strings.Contains(body, `stapd_node_up{replica="0",node="1"} 1`) ||
		!strings.Contains(body, `stapd_node_up{replica="0",node="2"} 1`) {
		return false
	}
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, `stapd_cluster_eq1_throughput_cpis_per_sec{replica="0"} `) {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, `stapd_cluster_eq1_throughput_cpis_per_sec{replica="0"} `), 64)
		return err == nil && v > 0
	}
	return false
}
