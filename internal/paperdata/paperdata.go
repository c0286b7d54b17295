// Package paperdata records every published value of the paper's
// evaluation section (Tables 1-10 and the Section 2 flight reference) in
// one place: non-test Go outside this package writes none of them out,
// so stapbench's report, the examples and the tests compare against a
// single source of truth. CI greps for that.
package paperdata

import "pstap/internal/pipeline"

// Assignments of the paper's integrated-system cases.
var (
	Case1  = pipeline.NewAssignment(32, 16, 112, 16, 28, 16, 16) // 236 nodes
	Case2  = pipeline.NewAssignment(16, 8, 56, 8, 14, 8, 8)      // 118 nodes
	Case3  = pipeline.NewAssignment(8, 4, 28, 4, 7, 4, 4)        // 59 nodes
	Table9 = pipeline.NewAssignment(20, 8, 56, 8, 14, 8, 8)      // 122 nodes
	Tbl10  = pipeline.NewAssignment(20, 8, 56, 8, 14, 16, 16)    // 138 nodes
)

// Table1 is the published flop count per task (pipeline task order).
var Table1 = [7]int64{
	79691776,  // Doppler filter
	13851792,  // easy weight
	197038464, // hard weight
	28311552,  // easy BF
	44040192,  // hard BF
	38928384,  // pulse compression
	1690368,   // CFAR
}

// Table1Total is the published total.
const Table1Total int64 = 403552528

// SystemCase holds one Table 8 row.
type SystemCase struct {
	Nodes          int
	ThroughputEq   float64
	ThroughputReal float64
	LatencyEq      float64
	LatencyReal    float64
}

// Table8 is the published integrated-system performance.
var Table8 = []SystemCase{
	{Nodes: 236, ThroughputEq: 7.1019, ThroughputReal: 7.2659, LatencyEq: 0.5362, LatencyReal: 0.3622},
	{Nodes: 118, ThroughputEq: 3.7919, ThroughputReal: 3.7959, LatencyEq: 1.0346, LatencyReal: 0.6805},
	{Nodes: 59, ThroughputEq: 1.9791, ThroughputReal: 1.9898, LatencyEq: 1.9996, LatencyReal: 1.3530},
}

// The published outcomes of the Table 9 and Table 10 what-ifs.
var (
	Table9Throughput  = 5.0213
	Table9Latency     = 0.5498
	Table10Throughput = 4.9052
	Table10Latency    = 0.4247
)

// Table7Comp lists the published per-task compute times for the three
// cases (seconds), indexed [case][task] with case 0 = 236 nodes.
var Table7Comp = [3][7]float64{
	{.0874, .0913, .0831, .0708, .0414, .0776, .0434},
	{.1714, .1636, .1636, .1267, .0822, .1543, .0864},
	{.3509, .3254, .3265, .2529, .1636, .3067, .1723},
}

// CommBlock is one column block of a communication table: the times to
// DstNodes nodes of task Dst from each of the table's source node counts.
type CommBlock struct {
	Dst, DstNodes int
	Times         [][2]float64 // {send, recv} in seconds, per CommTable.SrcNodes
}

// CommTable is one of the paper's inter-task communication tables
// (Tables 2-6): the send and receive times from task Src on each of
// SrcNodes nodes, measured with case 2's assignment for the other tasks.
type CommTable struct {
	Title    string
	Src      int
	SrcNodes []int
	Blocks   []CommBlock
	Note     string // what the published values themselves leave unexplained
}

// CommTables holds Tables 2-6, keyed by table number.
var CommTables = map[int]CommTable{
	2: {
		Title: "Doppler filter -> successor tasks",
		Src:   pipeline.TaskDoppler, SrcNodes: []int{8, 16, 32},
		Blocks: []CommBlock{
			{pipeline.TaskEasyWeight, 16, [][2]float64{{.1332, .4339}, {.0679, .1780}, {.0340, .0511}}},
			{pipeline.TaskHardWeight, 56, [][2]float64{{.1332, .3603}, {.0679, .1048}, {.0332, .0034}}},
			{pipeline.TaskHardWeight, 112, [][2]float64{{.1332, .4441}, {.0679, .1837}, {.0340, .0563}}},
			{pipeline.TaskEasyBF, 16, [][2]float64{{.1332, .4509}, {.0679, .1955}, {.0340, .0646}}},
			{pipeline.TaskHardBF, 16, [][2]float64{{.1332, .4395}, {.0679, .1843}, {.0340, .0519}}},
		},
		Note: "The paper's 112-node hard-weight column appears to carry the easy-BF timing; the model reports its own prediction.",
	},
	3: {
		Title: "easy weight -> easy beamforming",
		Src:   pipeline.TaskEasyWeight, SrcNodes: []int{4, 8, 16},
		Blocks: []CommBlock{
			{pipeline.TaskEasyBF, 8, [][2]float64{{.0005, .1956}, {.0088, .0883}, {.0768, .0807}}},
			{pipeline.TaskEasyBF, 16, [][2]float64{{.0007, .2570}, {.0004, .0905}, {.0003, .0660}}},
		},
	},
	4: {
		Title: "hard weight -> hard beamforming",
		Src:   pipeline.TaskHardWeight, SrcNodes: []int{28, 56, 112},
		Blocks: []CommBlock{
			{pipeline.TaskHardBF, 8, [][2]float64{{.0007, .1798}, {.0100, .1468}, {.1824, .1398}}},
			{pipeline.TaskHardBF, 16, [][2]float64{{.0007, .2485}, {.0065, .0765}, {.0005, .0543}}},
		},
	},
	5: {
		Title: "easy beamforming -> pulse compression",
		Src:   pipeline.TaskEasyBF, SrcNodes: []int{4, 8, 16},
		Blocks: []CommBlock{
			{pipeline.TaskPulseComp, 8, [][2]float64{{.0069, .5016}, {.0036, .1379}, {.0580, .0771}}},
			{pipeline.TaskPulseComp, 16, [][2]float64{{.0069, .5714}, {.0036, .2090}, {.0022, .0569}}},
		},
	},
	6: {
		Title: "pulse compression -> CFAR",
		Src:   pipeline.TaskPulseComp, SrcNodes: []int{4, 8, 16},
		Blocks: []CommBlock{
			{pipeline.TaskCFAR, 4, [][2]float64{{.0099, .3351}, {.0053, .0662}, {.1256, .0435}}},
			{pipeline.TaskCFAR, 8, [][2]float64{{.0098, .3348}, {.0051, .1750}, {.0028, .1783}}},
		},
	},
}

// RTMCARM is the flight-demonstration reference (Section 2).
var RTMCARM = struct {
	Nodes      int
	Throughput float64
	Latency    float64
}{Nodes: 25, Throughput: 10, Latency: 2.35}
