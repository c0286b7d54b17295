package pstap_test

// One benchmark per table/figure of the paper's evaluation section. The
// Paragon-scale numbers come from the calibrated machine model (the
// b.ReportMetric outputs carry the reproduced values); the Benchmark*Real*
// benches run the actual Go pipeline and kernels on the host. Run with
//
//	go test -bench=. -benchmem .
//
// cmd/stapbench prints the same data as formatted tables with the paper's
// values side by side.

import (
	"strings"
	"testing"

	"pstap/internal/paperdata"
	"pstap/internal/paragon"
	"pstap/internal/pipeline"
	"pstap/internal/plan"
	"pstap/internal/radar"
	"pstap/internal/stap"
)

func model() *paragon.Model {
	return paragon.NewModel(paragon.AFRLParagon(), radar.Paper())
}

// BenchmarkTable1FlopCounts regenerates Table 1: per-task flop counts. The
// reported metrics are the model's counts; the benchmark loop measures the
// counting itself.
func BenchmarkTable1FlopCounts(b *testing.B) {
	var f stap.FlopCounts
	for i := 0; i < b.N; i++ {
		f = stap.CountFlops(radar.Paper())
	}
	per := f.PerTask()
	for t, v := range per {
		b.ReportMetric(float64(v), strings.ReplaceAll(stap.TaskNames[t], " ", "-")+"-flops")
	}
	b.ReportMetric(float64(f.Total()), "total-flops")
}

// BenchmarkTable2DopplerComm regenerates Table 2: Doppler-to-successor
// communication at 8/16/32 Doppler nodes (easy-BF-16 column).
func BenchmarkTable2DopplerComm(b *testing.B) {
	mo := model()
	var send, recv float64
	for i := 0; i < b.N; i++ {
		send, recv = mo.PairComm(pipeline.TaskDoppler, pipeline.TaskEasyBF, 8, 16, paperdata.Case2)
	}
	b.ReportMetric(send, "send8-s")
	b.ReportMetric(recv, "recv8-s")
	_, r16 := mo.PairComm(pipeline.TaskDoppler, pipeline.TaskEasyBF, 16, 16, paperdata.Case2)
	_, r32 := mo.PairComm(pipeline.TaskDoppler, pipeline.TaskEasyBF, 32, 16, paperdata.Case2)
	b.ReportMetric(r16, "recv16-s")
	b.ReportMetric(r32, "recv32-s")
}

// BenchmarkTable3EasyWeightComm regenerates Table 3 (easy weight -> easy
// BF), including the sender-idle blowup at 16->8 nodes.
func BenchmarkTable3EasyWeightComm(b *testing.B) {
	mo := model()
	var sSlow float64
	for i := 0; i < b.N; i++ {
		sSlow, _ = mo.PairComm(pipeline.TaskEasyWeight, pipeline.TaskEasyBF, 16, 8, paperdata.Case2)
	}
	sFast, rFast := mo.PairComm(pipeline.TaskEasyWeight, pipeline.TaskEasyBF, 16, 16, paperdata.Case2)
	b.ReportMetric(sSlow, "send16to8-s")
	b.ReportMetric(sFast, "send16to16-s")
	b.ReportMetric(rFast, "recv16to16-s")
}

// BenchmarkTable4HardWeightComm regenerates Table 4 (hard weight -> hard BF).
func BenchmarkTable4HardWeightComm(b *testing.B) {
	mo := model()
	var send, recv float64
	for i := 0; i < b.N; i++ {
		send, recv = mo.PairComm(pipeline.TaskHardWeight, pipeline.TaskHardBF, 56, 16, paperdata.Case2)
	}
	b.ReportMetric(send, "send56to16-s")
	b.ReportMetric(recv, "recv56to16-s")
}

// BenchmarkTable5BeamToPulseComm regenerates Table 5 (BF -> pulse
// compression).
func BenchmarkTable5BeamToPulseComm(b *testing.B) {
	mo := model()
	var send, recv float64
	for i := 0; i < b.N; i++ {
		send, recv = mo.PairComm(pipeline.TaskEasyBF, pipeline.TaskPulseComp, 8, 16, paperdata.Case2)
	}
	b.ReportMetric(send, "send8to16-s")
	b.ReportMetric(recv, "recv8to16-s")
}

// BenchmarkTable6PulseToCFARComm regenerates Table 6 (pulse compression ->
// CFAR).
func BenchmarkTable6PulseToCFARComm(b *testing.B) {
	mo := model()
	var send, recv float64
	for i := 0; i < b.N; i++ {
		send, recv = mo.PairComm(pipeline.TaskPulseComp, pipeline.TaskCFAR, 16, 8, paperdata.Case2)
	}
	b.ReportMetric(send, "send16to8-s")
	b.ReportMetric(recv, "recv16to8-s")
}

// BenchmarkTable7Case1/2/3 regenerate the integrated-system rows of Table
// 7 and the throughput/latency of Table 8 for each node assignment.
func benchCase(b *testing.B, a pipeline.Assignment) {
	mo := model()
	var res paragon.SimResult
	for i := 0; i < b.N; i++ {
		res = mo.Simulate(a)
	}
	b.ReportMetric(res.Throughput, "throughput-CPI/s")
	b.ReportMetric(res.RealLatency, "latency-s")
	b.ReportMetric(res.EqLatency, "eq-latency-s")
	b.ReportMetric(res.Period, "period-s")
}

func BenchmarkTable7Case1_236nodes(b *testing.B) { benchCase(b, paperdata.Case1) }
func BenchmarkTable7Case2_118nodes(b *testing.B) { benchCase(b, paperdata.Case2) }
func BenchmarkTable7Case3_59nodes(b *testing.B)  { benchCase(b, paperdata.Case3) }

// BenchmarkTable8Scaling reports the 236-vs-59-node throughput and latency
// ratios behind the linear-scalability claim.
func BenchmarkTable8Scaling(b *testing.B) {
	mo := model()
	var r1, r3 paragon.SimResult
	for i := 0; i < b.N; i++ {
		r1 = mo.Simulate(paperdata.Case1)
		r3 = mo.Simulate(paperdata.Case3)
	}
	b.ReportMetric(r1.Throughput/r3.Throughput, "throughput-ratio-236/59")
	b.ReportMetric(r3.RealLatency/r1.RealLatency, "latency-ratio-59/236")
}

// BenchmarkTable9AddDopplerNodes regenerates the Table 9 experiment.
func BenchmarkTable9AddDopplerNodes(b *testing.B) { benchCase(b, paperdata.Table9) }

// BenchmarkTable10AddBackendNodes regenerates the Table 10 experiment.
func BenchmarkTable10AddBackendNodes(b *testing.B) { benchCase(b, paperdata.Tbl10) }

// BenchmarkFigure11ComputeScaling regenerates Figure 11: per-task compute
// time vs node count (speedup is exactly linear in the model; the real
// kernels back the rates).
func BenchmarkFigure11ComputeScaling(b *testing.B) {
	mo := model()
	var t32 float64
	for i := 0; i < b.N; i++ {
		t32 = mo.CompTime(pipeline.TaskDoppler, 32)
	}
	b.ReportMetric(t32, "doppler32-s")
	b.ReportMetric(mo.CompTime(pipeline.TaskHardWeight, 112), "hardweight112-s")
	b.ReportMetric(mo.CompTime(pipeline.TaskDoppler, 1)/mo.CompTime(pipeline.TaskDoppler, 32), "speedup32")
}

// BenchmarkPlanOptimize measures the Section 4.1.2 assignment search at
// the paper's 236-node budget.
func BenchmarkPlanOptimize(b *testing.B) {
	mo := model()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Optimize(plan.Request{Model: mo, Nodes: 236, Top: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Real-execution analogues (host wall clock, reduced problem) ---

// BenchmarkRealSerialCPI measures one full CPI through the serial
// reference chain.
func BenchmarkRealSerialCPI(b *testing.B) {
	sc := radar.DefaultScene(radar.Small())
	pr := stap.NewProcessor(sc)
	raw := sc.GenerateCPI(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pr.Process(raw)
	}
}

// BenchmarkRealPipeline measures the actual parallel pipeline end to end
// and reports its measured throughput and latency.
func BenchmarkRealPipeline(b *testing.B) {
	sc := radar.DefaultScene(radar.Small())
	var res *pipeline.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = pipeline.Run(pipeline.Config{
			Scene:   sc,
			Assign:  pipeline.NewAssignment(2, 1, 2, 1, 1, 2, 1),
			NumCPIs: 16,
			Warmup:  4, Cooldown: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Throughput, "throughput-CPI/s")
	b.ReportMetric(res.Latency.Seconds(), "latency-s")
	b.ReportMetric(float64(res.BytesSent), "bytes")
}

// BenchmarkRealDopplerPaperSize runs the Doppler filter kernel at the full
// 512x16x128 paper size on one core — the real-hardware anchor for the
// model's per-node compute rates.
func BenchmarkRealDopplerPaperSize(b *testing.B) {
	p := radar.Paper()
	sc := radar.DefaultScene(p)
	sc.Clutter.Patches = 0 // generation cost, not filter cost
	raw := sc.GenerateCPI(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stap.DopplerFilter(p, raw, nil)
	}
	flops := float64(stap.CountFlops(p).Doppler)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e6, "MFLOPS")
}
