package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"pstap/internal/cube"
	"pstap/internal/dist"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/serve"
	"pstap/internal/stap"
)

// Workload kinds: which public entry point carries the jobs.
const (
	kindPipe  = "pipe"  // pipeline.NewStream, in-process
	kindDist  = "dist"  // dist.ClusterConfig.Connect over two in-process nodes
	kindServe = "serve" // serve.New + serve.Dial clients on loopback
)

// poolJobs is the number of distinct pre-generated jobs a workload cycles
// through, and also its warm-up length: every pool job runs once, untimed,
// before the first window.
const poolJobs = 8

var (
	assignA10 = pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1)
	assignA7  = pipeline.NewAssignment(1, 1, 1, 1, 1, 1, 1)
)

// workload is one named input mix. Every caller waits for its report
// before sending the next job (a radar front-end holding one connection),
// so the load is a closed loop of `submitters` callers.
type workload struct {
	name       string
	kind       string
	params     radar.Params
	assign     pipeline.Assignment
	jobCPIs    int
	submitters int
	// window is the replica's in-flight CPI window (0 = the program's
	// default).
	window int
	// setups is how many times a run sets the workload up; setup_s is the
	// median. Medium set-ups cost seconds, so they get the minimum.
	setups int
}

var workloads = []workload{
	{name: "pipe.medium", kind: kindPipe, params: radar.Medium(), assign: assignA10, jobCPIs: 4, submitters: 1, setups: 3},
	{name: "pipe.small", kind: kindPipe, params: radar.Small(), assign: assignA10, jobCPIs: 4, submitters: 1, setups: 5},
	{name: "dist.small", kind: kindDist, params: radar.Small(), assign: assignA10, jobCPIs: 4, submitters: 1, setups: 5},
	{name: "dist.medium", kind: kindDist, params: radar.Medium(), assign: assignA10, jobCPIs: 4, submitters: 1, setups: 3},
	{name: "serve.small", kind: kindServe, params: radar.Small(), assign: assignA7, jobCPIs: 2, submitters: 2, window: 2, setups: 5},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// job is one pool entry: the cubes the program receives and the serial
// reference's detection reports for them.
type job struct {
	cpis []*cube.Cube
	want [][]stap.Detection
}

// makePool generates the workload's jobs from the scene (whose Seed is
// the benchmark seed) and runs each through a fresh stap.Processor, the
// serial reference every returned report is compared with. Jobs are
// independent, so they are built on all processors.
func makePool(sc *radar.Scene, w workload) []job {
	pool := make([]job, poolJobs)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for j := range pool {
		wg.Add(1)
		sem <- struct{}{}
		go func(j int) {
			defer wg.Done()
			defer func() { <-sem }()
			ref := stap.NewProcessor(sc)
			for c := 0; c < w.jobCPIs; c++ {
				raw := sc.GenerateCPI(j*w.jobCPIs + c)
				pool[j].cpis = append(pool[j].cpis, raw)
				pool[j].want = append(pool[j].want, ref.Process(raw).Detections)
			}
		}(j)
	}
	wg.Wait()
	return pool
}

// firstDiff returns the index of the first CPI whose report differs from
// the reference bit for bit, or -1 when the job matches. An empty report
// equals a nil one (gob does not keep the distinction).
func firstDiff(got, want [][]stap.Detection) int {
	for i := range want {
		if i >= len(got) || !slices.Equal(got[i], want[i]) {
			return i
		}
	}
	if len(got) > len(want) {
		return len(want)
	}
	return -1
}

// reply is what one submitted job returned. queue and service are the
// server-side residence split, reported by the serving layer only.
type reply struct {
	dets           [][]stap.Detection
	queue, service time.Duration
}

// target is a started program under test: one submit function per
// closed-loop caller, the handles the per-layer counters are read from,
// and stop, which tears everything down and waits for it.
type target struct {
	// call names the public function a submit goes through; it is the
	// span under each traced job.
	call   string
	submit []func(cpis []*cube.Cube) (reply, error)
	stop   func()

	replica *dist.Replica // kindDist
	nodes   []*dist.Node  // kindDist
	server  *serve.Server // kindServe
}

// start brings the workload's program up through its public constructors.
func start(w workload, sc *radar.Scene) (*target, error) {
	switch w.kind {
	case kindPipe:
		return startPipe(w, sc)
	case kindDist:
		return startDist(w, sc)
	case kindServe:
		return startServe(w, sc)
	}
	return nil, fmt.Errorf("workload %s: unknown kind %q", w.name, w.kind)
}

// startPipe starts one in-process stream per submitter (a stream runs one
// job at a time).
func startPipe(w workload, sc *radar.Scene) (*target, error) {
	tg := &target{call: "pipeline.ProcessJob"}
	var streams []*pipeline.Stream
	tg.stop = func() {
		for _, st := range streams {
			st.Close()
		}
	}
	for i := 0; i < w.submitters; i++ {
		st, err := pipeline.NewStream(pipeline.StreamConfig{Scene: sc, Assign: w.assign, Window: w.window})
		if err != nil {
			tg.stop()
			return nil, err
		}
		streams = append(streams, st)
		tg.submit = append(tg.submit, func(cpis []*cube.Cube) (reply, error) {
			dets, err := st.ProcessJob(cpis)
			return reply{dets: dets}, err
		})
	}
	return tg, nil
}

// startDist starts two node agents on loopback TCP in this process and
// connects one replica split 0-2/3-6 across them (the BENCH_dist split2
// arm).
func startDist(w workload, sc *radar.Scene) (*target, error) {
	secret := []byte("bench")
	tg := &target{call: "dist.ProcessJob"}
	var served sync.WaitGroup
	stopNodes := func() {
		for _, n := range tg.nodes {
			n.Close()
		}
		served.Wait()
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stopNodes()
			return nil, err
		}
		node := dist.NewNode(ln, dist.NodeConfig{Secret: secret})
		served.Add(1)
		go func() {
			defer served.Done()
			_ = node.Serve() // returns when Close shuts the listener
		}()
		tg.nodes = append(tg.nodes, node)
		addrs = append(addrs, ln.Addr().String())
	}
	placement, err := dist.ParsePlacement("0-2/3-6", 2)
	if err != nil {
		stopNodes()
		return nil, err
	}
	cfg := dist.ClusterConfig{
		Name:       w.name,
		Nodes:      addrs,
		Placement:  placement,
		Secret:     secret,
		Scene:      sc,
		Assign:     w.assign,
		Window:     w.window,
		CPITimeout: time.Minute,
	}
	rep, err := cfg.Connect()
	if err != nil {
		stopNodes()
		return nil, err
	}
	tg.replica = rep
	tg.stop = func() {
		rep.Close()
		stopNodes()
	}
	tg.submit = append(tg.submit, func(cpis []*cube.Cube) (reply, error) {
		dets, err := rep.ProcessJob(cpis)
		return reply{dets: dets}, err
	})
	return tg, nil
}

// startServe starts a two-replica server on loopback and one client
// connection per submitter. Jobs go through Client.Do so the reply's
// queue/service split is visible; a refusal (Busy and the rest) is a
// failed job, never retried.
func startServe(w workload, sc *radar.Scene) (*target, error) {
	srv, err := serve.New(serve.Config{
		Scene:      sc,
		Assign:     w.assign,
		Replicas:   2,
		QueueDepth: 8,
		Window:     w.window,
	})
	if err != nil {
		return nil, err
	}
	tg := &target{call: "serve.Do", server: srv}
	var clients []*serve.Client
	tg.stop = func() {
		for _, cl := range clients {
			cl.Close()
		}
		_ = srv.Shutdown(context.Background()) // errors only when its context expires
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		tg.stop()
		return nil, err
	}
	for i := 0; i < w.submitters; i++ {
		cl, err := serve.Dial(srv.Addr().String())
		if err != nil {
			tg.stop()
			return nil, err
		}
		clients = append(clients, cl)
		tg.submit = append(tg.submit, func(cpis []*cube.Cube) (reply, error) {
			resp, err := cl.Do(&serve.Request{CPIs: cpis})
			if err != nil {
				return reply{}, err
			}
			if resp.Status != serve.StatusOK {
				return reply{}, fmt.Errorf("serve: status %s: %s", resp.Status, resp.Err)
			}
			return reply{
				dets:    resp.Detections,
				queue:   time.Duration(resp.QueueNs),
				service: time.Duration(resp.ServiceNs),
			}, nil
		})
	}
	return tg, nil
}

// rig is a set-up workload, ready for a timed window.
type rig struct {
	w     workload
	scene *radar.Scene
	pool  []job
	tg    *target
}

// setup does everything a run pays before its first timed job: scene and
// job-pool generation with the serial reference, program start and
// connect, and one untimed pass over the pool to fill caches and finish
// lazy initialisation. The elapsed time is one setup_s sample.
func setup(w workload, seed int64) (*rig, time.Duration, error) {
	t0 := time.Now()
	sc := radar.DefaultScene(w.params)
	sc.Seed = seed
	r := &rig{w: w, scene: sc, pool: makePool(sc, w)}
	tg, err := start(w, sc)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: start: %w", w.name, err)
	}
	r.tg = tg
	if err := r.warm(); err != nil {
		tg.stop()
		return nil, 0, err
	}
	return r, time.Since(t0), nil
}

// warm runs every pool job once, untimed, and checks its report.
func (r *rig) warm() error {
	for j, jb := range r.pool {
		rep, err := r.tg.submit[j%len(r.tg.submit)](jb.cpis)
		if err != nil {
			return fmt.Errorf("%s: warm-up job %d: %w", r.w.name, j, err)
		}
		if d := firstDiff(rep.dets, jb.want); d >= 0 {
			return fmt.Errorf("%s: warm-up job %d: CPI %d differs from the serial reference", r.w.name, j, d)
		}
	}
	return nil
}
