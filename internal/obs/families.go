package obs

import (
	"runtime/metrics"
	"strconv"
)

// The metric sub-tables stapd and stapnode share. Each declares the rows
// of one source — a collector, a gauge set, an attribution report — under
// the label set l; a process composes them into its one table
// (serve.Server.families, dist.Node.families), once per source.

type emitFunc = func(labels []Label, v float64)

// CollectorFamilies declares the stap_* counter rows of one collector,
// all scrape-only. The per-worker counters are snapshotted on first use,
// so a history tick never pays for them.
func CollectorFamilies(l []Label, c *Collector) []Family {
	var snap *Snapshot
	perWorker := func(name, help string, f func(emit emitFunc, l []Label, ws WorkerSnapshot)) Family {
		return Family{Name: name, Type: "counter", Help: help, Collect: func(emit emitFunc) {
			if snap == nil {
				s := c.Snapshot()
				snap = &s
			}
			for _, ts := range snap.Tasks {
				for wi, ws := range ts.Workers {
					f(emit, with(l, Label{"task", ts.Name}, Label{"worker", strconv.Itoa(wi)}), ws)
				}
			}
		}}
	}
	return []Family{
		perWorker("stap_cpis_total", "CPIs processed per task worker.",
			func(emit emitFunc, l []Label, ws WorkerSnapshot) { emit(l, float64(ws.CPIs)) }),
		perWorker("stap_phase_seconds_total", "Cumulative receive/compute/send time per task worker (Figure 10 phases).",
			func(emit emitFunc, l []Label, ws WorkerSnapshot) {
				emit(with(l, Label{"phase", "recv"}), ws.Recv.Seconds())
				emit(with(l, Label{"phase", "comp"}), ws.Comp.Seconds())
				emit(with(l, Label{"phase", "send"}), ws.Send.Seconds())
			}),
		perWorker("stap_wait_seconds_total", "Blocked receive-wait time per task worker (the queue-wait share of the recv phase).",
			func(emit emitFunc, l []Label, ws WorkerSnapshot) { emit(l, ws.Wait.Seconds()) }),
		Sample("stap_messages_total", "counter", "Inter-task messages sent through the mp runtime.", "", l, float64(c.Messages())),
		Sample("stap_bytes_sent_total", "counter", "Inter-task payload bytes sent through the mp runtime.", "", l, float64(c.Bytes())),
	}
}

// gaugeHelp words GaugeFamilies' rows for a single collector's window.
var gaugeHelp = []string{
	"Mean per-CPI phase time per task over the gauge window.",
	"Paper eq. 1 throughput 1/max_i T_i over the gauge window.",
	"Paper eq. 2 latency bound over the gauge window.",
	"Paper eq. 3 measured (real) latency over the gauge window.",
	"Measured completion-gap throughput over the gauge window.",
	"Distinct CPIs currently inside the gauge window.",
}

// GaugeFamilies declares the live paper metrics of one GaugeSet: per-task
// phase means, eq. (1)-(3), measured throughput and the window fill.
// name prefixes the family names and series the history series ("stap_"
// and "r{replica}/" for a replica's collector, "stapd_cluster_" and
// "r{replica}/cluster/" for the merged cluster timeline); help words the
// six rows in order, nil meaning a single collector's window.
func GaugeFamilies(name, series string, help []string, l []Label, g GaugeSet) []Family {
	if help == nil {
		help = gaugeHelp
	}
	return []Family{
		{Name: name + "task_seconds", Type: "gauge", Help: help[0], Collect: func(emit emitFunc) {
			for _, pm := range g.Tasks {
				if pm.Samples == 0 {
					continue
				}
				task := Label{"task", pm.Name}
				emit(with(l, task, Label{"phase", "recv"}), pm.Recv.Seconds())
				emit(with(l, task, Label{"phase", "comp"}), pm.Comp.Seconds())
				emit(with(l, task, Label{"phase", "send"}), pm.Send.Seconds())
			}
		}},
		Sample(name+"eq1_throughput_cpis_per_sec", "gauge", help[1], series+"eq1_throughput_cpis_per_sec", l, g.Eq1Throughput),
		Sample(name+"eq2_latency_seconds", "gauge", help[2], series+"eq2_latency_seconds", l, g.Eq2Latency.Seconds()),
		Sample(name+"eq3_latency_seconds", "gauge", help[3], series+"eq3_latency_seconds", l, g.Eq3Latency.Seconds()),
		Sample(name+"real_throughput_cpis_per_sec", "gauge", help[4], series+"real_throughput_cpis_per_sec", l, g.RealThroughput),
		Sample(name+"obs_window_cpis", "gauge", help[5], series+"window_cpis", l, float64(g.WindowCPIs)),
	}
}

// AttrFamilies declares the stap_attr_* rows of one attribution report,
// built by report on first use (a nil report declares the rows and emits
// nothing). series prefixes the per-task mean and utilization history
// series ("r{replica}/attr/"); the other rows are scrape-only.
func AttrFamilies(series string, l []Label, report func() *BottleneckReport) []Family {
	var rep *BottleneckReport
	row := func(name, typ, help, ser string, f func(emit emitFunc, rep *BottleneckReport)) Family {
		return Family{Name: name, Type: typ, Help: help, Series: ser, Collect: func(emit emitFunc) {
			if rep == nil {
				rep = report()
			}
			if rep != nil {
				f(emit, rep)
			}
		}}
	}
	summary := func(name, help string, v func(*BottleneckReport) float64) Family {
		return row(name, "gauge", help, "", func(emit emitFunc, rep *BottleneckReport) { emit(l, v(rep)) })
	}
	perHop := func(name, help string, f func(emit emitFunc, l []Label, h HopAttr)) Family {
		return row(name, "gauge", help, "", func(emit emitFunc, rep *BottleneckReport) {
			for _, h := range rep.Hops {
				f(emit, with(l, Label{"from", h.From}, Label{"to", h.To}), h)
			}
		})
	}
	return []Family{
		summary("stap_attr_window_cpis", "Complete CPI waterfalls inside the attribution window.",
			func(rep *BottleneckReport) float64 { return float64(rep.WindowCPIs) }),
		summary("stap_attr_sum_err_frac_max", "Worst sum-to-total residual of the window's waterfalls (must stay under the pinned tolerance).",
			func(rep *BottleneckReport) float64 { return rep.SumErrFracMax }),
		summary("stap_attr_e2e_seconds", "Mean end-to-end latency of the window's complete CPIs.",
			func(rep *BottleneckReport) float64 { return float64(rep.E2EMeanNs) / 1e9 }),
		summary("stap_attr_wire_frac", "Wire-tax share of the window's summed end-to-end latency.",
			func(rep *BottleneckReport) float64 { return rep.WireFrac }),
		// Each exemplar-window CPI contributes its per-stage component
		// value as one observation.
		row("stap_attr_task_component_seconds", "histogram", "Windowed distribution of per-CPI attribution components per task.", "",
			func(emit emitFunc, rep *BottleneckReport) {
				for _, wf := range rep.Exemplars {
					for _, sw := range wf.Stages {
						for ci, cn := range ComponentNames {
							emit(with(l, Label{"task", sw.Name}, Label{"component", cn}), float64(sw.Comp.Get(ci))/1e9)
						}
					}
				}
			}),
		row("stap_attr_task_mean_seconds", "gauge", "Mean per-CPI attribution component per task over the window.", series+"{task}/{component}_seconds",
			func(emit emitFunc, rep *BottleneckReport) {
				for _, ta := range rep.Tasks {
					for ci, cn := range ComponentNames {
						emit(with(l, Label{"task", ta.Name}, Label{"component", cn}), float64(ta.Mean.Get(ci))/1e9)
					}
				}
			}),
		row("stap_attr_task_utilization", "gauge", "Productive share (compute plus wire work) of each task's segment over the window.", series+"{task}/utilization",
			func(emit emitFunc, rep *BottleneckReport) {
				for _, ta := range rep.Tasks {
					emit(with(l, Label{"task", ta.Name}), ta.Utilization)
				}
			}),
		perHop("stap_attr_hop_seconds", "Windowed wire cost per link hop and component.", func(emit emitFunc, l []Label, h HopAttr) {
			emit(with(l, Label{"component", "serialize"}), float64(h.SerNs)/1e9)
			emit(with(l, Label{"component", "deserialize"}), float64(h.DeserNs)/1e9)
			emit(with(l, Label{"component", "transmit"}), float64(h.XmitNs)/1e9)
			emit(with(l, Label{"component", "stall"}), float64(h.StallNs)/1e9)
		}),
		perHop("stap_attr_hop_bytes", "Windowed bytes moved per link hop.",
			func(emit emitFunc, l []Label, h HopAttr) { emit(l, float64(h.Bytes)) }),
		perHop("stap_attr_hop_wire_frac", "Per-hop wire tax as a fraction of the window's summed end-to-end latency.",
			func(emit emitFunc, l []Label, h HopAttr) { emit(l, h.WireFrac) }),
	}
}

// HeapAllocBytes returns the calling process's cumulative heap allocation
// in bytes — stap_runtime_heap_alloc_bytes_total's reading, for a caller
// that differences it over its own interval.
func HeapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// RuntimeFamilies declares the Go runtime gauges of the calling process,
// read with runtime/metrics (no stop-the-world, so a 1 Hz sampler can
// afford them) — the quantities an "allocates nothing" claim is judged on.
func RuntimeFamilies() []Family {
	rows := []struct{ name, typ, help, key string }{
		{"goroutines", "gauge", "Live goroutines.", "/sched/goroutines:goroutines"},
		{"heap_alloc_bytes_total", "counter", "Cumulative bytes allocated on the heap.", "/gc/heap/allocs:bytes"},
		{"heap_alloc_objects_total", "counter", "Cumulative objects allocated on the heap.", "/gc/heap/allocs:objects"},
		{"gc_pause_cpu_seconds_total", "counter", "Cumulative CPU time the application was paused by the GC (pause x GOMAXPROCS).", "/cpu/classes/gc/pause:cpu-seconds"},
	}
	samples := make([]metrics.Sample, len(rows))
	for i, r := range rows {
		samples[i].Name = r.key
	}
	metrics.Read(samples)
	fams := make([]Family, len(rows))
	for i, r := range rows {
		v := 0.0
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			v = float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			v = samples[i].Value.Float64()
		}
		fams[i] = Sample("stap_runtime_"+r.name, r.typ, r.help, "runtime/"+r.name, nil, v)
	}
	return fams
}
