package dist

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pstap/internal/cube"
	"pstap/internal/fault"
	"pstap/internal/obs"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

// ClusterConfig names a set of stapnode agents and how one pipeline
// replica spreads across them. Connect turns it into a live Replica; the
// serving layer re-Connects on loss, so the config is reusable.
type ClusterConfig struct {
	// Name labels the cluster in errors and metrics.
	Name string
	// Nodes are the stapnode dial addresses; node j of the placement is
	// Nodes[j-1].
	Nodes []string
	// Placement maps nodes to task ranges (DefaultPlacement when nil).
	Placement Placement
	// Secret is the shared cluster secret signing the manifest.
	Secret []byte

	Scene   *radar.Scene
	Assign  pipeline.Assignment
	Window  int
	Threads int
	// CPITimeout bounds each CPI during ProcessJob, exactly as for a
	// local stream — the watchdog that also bounds how long a vanished
	// node can stall a job.
	CPITimeout time.Duration

	// Heartbeat is the link heartbeat interval (DefaultHeartbeat if 0).
	Heartbeat time.Duration

	// Obs, when non-nil, receives the driver-side telemetry (message
	// accounting for frames the coordinator sends; worker spans stay on
	// the nodes).
	Obs *obs.Collector
	// FaultPlan, when non-empty, is shipped in the manifest and armed on
	// every node (worker and link faults), seeded by Seed.
	FaultPlan string
	Seed      int64
	// Fault, when non-nil, arms link-plane rules on the coordinator's own
	// links (the `link` pseudo-task; see internal/fault).
	Fault *fault.Injector

	Logf func(format string, args ...any)
}

func (c *ClusterConfig) defaults() (ClusterConfig, error) {
	cfg := *c
	if len(cfg.Nodes) == 0 {
		return cfg, fmt.Errorf("dist: cluster %q has no nodes", cfg.Name)
	}
	if cfg.Scene == nil {
		return cfg, fmt.Errorf("dist: cluster %q has no scene", cfg.Name)
	}
	if cfg.Placement == nil {
		cfg.Placement = DefaultPlacement(len(cfg.Nodes))
	}
	if len(cfg.Placement) != len(cfg.Nodes) {
		return cfg, fmt.Errorf("dist: cluster %q: %d nodes, placement %s", cfg.Name, len(cfg.Nodes), cfg.Placement)
	}
	if err := cfg.Placement.Validate(); err != nil {
		return cfg, err
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg, nil
}

// Replica is one live distributed pipeline replica: a pipeline.Stream
// whose driver rank runs here and whose workers run on the cluster's
// stapnodes. It satisfies the serving layer's replica contract, so a
// distributed slot drops in beside in-process ones.
type Replica struct {
	cluster string
	session string
	nodes   []string // dial addresses, for rewriting advertised obs addrs
	hosted

	closeOnce sync.Once
}

// Validate reports what Connect would refuse in the config itself,
// without dialing: no nodes, no scene, or a placement that does not fit
// the nodes.
func (c *ClusterConfig) Validate() error {
	_, err := c.defaults()
	return err
}

// Connect dials the cluster's nodes, distributes the signed manifest,
// waits for every node to wire up and report ready, and returns the live
// replica. On any failure everything already dialed is torn down.
func (c *ClusterConfig) Connect() (*Replica, error) {
	cfg, err := c.defaults()
	if err != nil {
		return nil, err
	}
	session, err := newSessionID()
	if err != nil {
		return nil, err
	}
	man := &Manifest{
		Session:   session,
		Scene:     cfg.Scene,
		Assign:    cfg.Assign,
		Window:    cfg.Window,
		Threads:   cfg.Threads,
		Nodes:     make([]NodeSpec, len(cfg.Nodes)),
		Heartbeat: cfg.Heartbeat,
		FaultPlan: cfg.FaultPlan,
		Seed:      cfg.Seed,
	}
	for i, addr := range cfg.Nodes {
		man.Nodes[i] = NodeSpec{Addr: addr, Tasks: cfg.Placement[i]}
	}
	signed, err := man.Sign(cfg.Secret)
	if err != nil {
		return nil, err
	}
	h, err := openSession(man, 0, cfg.Obs, cfg.Fault, cfg.CPITimeout)
	if err != nil {
		return nil, err
	}
	r := &Replica{cluster: cfg.Name, session: session, nodes: cfg.Nodes, hosted: h}
	for j := 1; j <= len(cfg.Nodes); j++ {
		addr := cfg.Nodes[j-1]
		conn, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
		if err == nil {
			if err = writeFrame(conn, &frame{Kind: frameHello, Session: session, To: j, Manifest: signed, Auth: man.Sig}); err != nil {
				conn.Close()
			}
		}
		if err != nil {
			r.Abort()
			return nil, &LinkError{Member: j, Addr: addr, Err: err}
		}
		h.tr.runLink(j, addr, conn)
	}
	if err := h.tr.awaitReady(len(cfg.Nodes), DefaultReadyTimeout); err != nil {
		r.Abort()
		return nil, err
	}
	cfg.Logf("dist: cluster %s session %s live: %d nodes, placement %s, manifest %s",
		cfg.Name, session, len(cfg.Nodes), cfg.Placement, man.SigPrefix())
	return r, nil
}

// Session returns the replica's session identifier.
func (r *Replica) Session() string { return r.session }

// ProcessJob runs one job through the distributed pipeline. When the
// replica died under the job — a node killed, a link dropped, a remote
// worker fault relayed through a goodbye — the error is a typed
// *ReplicaLostError wrapping the cause; a local watchdog expiry stays
// pipeline.ErrCPITimeout, matching the in-process stream contract.
func (r *Replica) ProcessJob(cpis []*cube.Cube) ([][]stap.Detection, error) {
	return r.ProcessJobOpts(cpis, pipeline.JobOpts{})
}

// ProcessJobOpts is ProcessJob with per-job options. A job deadline is
// the driver's alone: the nodes never see it. A replica whose job
// returned pipeline.ErrDeadlineExceeded is dead and must be aborted, as
// the serving layer's rebuild does; the goodbye that Abort writes ends
// every node's session. Until then its nodes finish at most the window's
// in-flight CPIs and then sit idle.
func (r *Replica) ProcessJobOpts(cpis []*cube.Cube, opts pipeline.JobOpts) ([][]stap.Detection, error) {
	dets, err := r.st.ProcessJobOpts(cpis, opts)
	if err == nil {
		return dets, nil
	}
	if errors.Is(err, pipeline.ErrDeadlineExceeded) {
		return nil, err
	}
	var le *LinkError
	if errors.As(err, &le) {
		return nil, &ReplicaLostError{Cluster: r.cluster, Session: r.session, Cause: err}
	}
	if errors.Is(err, pipeline.ErrStreamClosed) && r.world.Aborted() {
		if cause := r.world.AbortCause(); errors.As(cause, &le) {
			return nil, &ReplicaLostError{Cluster: r.cluster, Session: r.session, Cause: cause}
		}
	}
	return nil, err
}

// Faults returns the worker faults recorded on the coordinator's own
// supervision (remote faults surface as link goodbyes, not here).
func (r *Replica) Faults() []pipeline.WorkerFault { return r.st.Faults() }

// CPIsProcessed returns the number of CPIs fully processed.
func (r *Replica) CPIsProcessed() int64 { return r.st.CPIsProcessed() }

// LinkStats snapshots the coordinator's per-node link counters.
func (r *Replica) LinkStats() []LinkStats { return r.tr.Stats() }

// NodeObs returns the telemetry HTTP address of every node that
// advertised one on its ready frame, keyed by member index. Wildcard
// listen hosts ("", "::", "0.0.0.0") are rewritten to the host the
// coordinator dialed the node on, so the addresses are fetchable from
// here.
func (r *Replica) NodeObs() map[int]string {
	r.tr.mu.Lock()
	defer r.tr.mu.Unlock()
	out := make(map[int]string, len(r.tr.obsAddrs))
	for m, addr := range r.tr.obsAddrs {
		dial := ""
		if m >= 1 && m <= len(r.nodes) {
			dial = r.nodes[m-1]
		}
		out[m] = rewriteObsAddr(addr, dial)
	}
	return out
}

// rewriteObsAddr replaces a wildcard host in an advertised telemetry
// address with the host the node was dialed on.
func rewriteObsAddr(obsAddr, dialAddr string) string {
	host, port, err := net.SplitHostPort(obsAddr)
	if err != nil {
		return obsAddr
	}
	if host != "" && host != "::" && host != "0.0.0.0" {
		return obsAddr
	}
	dialHost, _, err := net.SplitHostPort(dialAddr)
	if err != nil || dialHost == "" {
		return obsAddr
	}
	return net.JoinHostPort(dialHost, port)
}

// Close drains the replica gracefully — in-flight CPIs finish on the
// nodes, the EOF control message unwinds every remote task group — then
// says goodbye on each link and tears the session down.
func (r *Replica) Close() {
	r.closeOnce.Do(func() {
		r.st.Close()
		r.tr.Close("")
		r.world.Abort()
		r.st.Abort()
	})
}

// Abort tears the replica down immediately: goodbye frames, dead links,
// aborted world. In-flight work is discarded; the nodes unwind and return
// to listening.
func (r *Replica) Abort() {
	r.closeOnce.Do(func() {
		r.world.Abort()
		r.tr.Close("")
		r.st.Abort()
	})
}
