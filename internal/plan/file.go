package plan

import (
	"fmt"

	"pstap/internal/dist"
	"pstap/internal/mac"
	"pstap/internal/pipeline"
)

// File is stapplan's emitted plan document: everything stapd needs to
// adopt the planned configuration — the worker assignment, the
// contiguous placement and the stapnode addresses it was computed for —
// plus the predicted eq. 1-3 numbers for the operator and an HMAC-SHA256
// signature under the cluster secret, so the file that drives a cluster
// carries the same provenance proof as the dist manifest built from it.
type File struct {
	// Size and MachineName label the scene and cost profile the plan was
	// computed for (informational; stapd trusts its own -size).
	Size        string `json:"size,omitempty"`
	MachineName string `json:"machine,omitempty"`
	// Assign is the per-task worker count (pipeline task order).
	Assign []int `json:"assign"`
	// Placement is the task→process split in -placement spec syntax
	// (empty when the plan was node-count only).
	Placement string `json:"placement,omitempty"`
	// Nodes are the stapnode dial addresses the placement maps onto.
	Nodes     []string  `json:"nodes,omitempty"`
	Predicted Predicted `json:"predicted"`
	Sig       []byte    `json:"sig,omitempty"`
}

// Predicted carries a plan's modeled steady-state numbers.
type Predicted struct {
	PeriodSec     float64 `json:"period_sec"`
	ThroughputCPS float64 `json:"throughput_cpis_per_sec"`
	Eq2LatencySec float64 `json:"eq2_latency_sec"`
	Eq3LatencySec float64 `json:"eq3_latency_sec"`
}

// NewFile builds a plan file from a ranked candidate.
func NewFile(c Candidate, size, machineName string, nodes []string) *File {
	f := &File{
		Size:        size,
		MachineName: machineName,
		Assign:      append([]int(nil), c.Assign[:]...),
		Nodes:       nodes,
		Predicted: Predicted{
			PeriodSec:     c.Period,
			ThroughputCPS: c.Throughput,
			Eq2LatencySec: c.EqLatency,
			Eq3LatencySec: c.RealLatency,
		},
	}
	if c.Placement != nil {
		f.Placement = c.Placement.String()
	}
	return f
}

// Assignment returns the file's worker assignment, validated.
func (f *File) Assignment() (pipeline.Assignment, error) {
	var a pipeline.Assignment
	if len(f.Assign) != pipeline.NumTasks {
		return a, fmt.Errorf("plan: file assign has %d counts, want %d", len(f.Assign), pipeline.NumTasks)
	}
	copy(a[:], f.Assign)
	return a, a.Validate()
}

// ParsedPlacement returns the file's placement parsed against its node
// list (nil placement when the file names no nodes and no placement).
func (f *File) ParsedPlacement() (dist.Placement, error) {
	if f.Placement == "" && len(f.Nodes) == 0 {
		return nil, nil
	}
	return dist.ParsePlacement(f.Placement, len(f.Nodes))
}

// fileSig addresses a plan file's signature field.
func fileSig(f *File) *[]byte { return &f.Sig }

// Sign computes and stores the file's HMAC under the cluster secret.
func (f *File) Sign(secret []byte) error { return mac.Sign(f, fileSig, secret) }

// Verify checks the file's signature under the cluster secret.
func (f *File) Verify(secret []byte) bool { return mac.Verify(f, fileSig, secret) }

// WriteFile signs the plan under secret and writes it as indented JSON.
func WriteFile(path string, f *File, secret []byte) error {
	return mac.WriteFile(path, f, fileSig, secret)
}

// ReadFile loads a plan file without verifying it — call Verify with
// the cluster secret before trusting the contents.
func ReadFile(path string) (*File, error) { return mac.ReadFile[File](path, "plan") }

// Report is the /plan endpoint payload: the serving layer's live
// current-vs-recommended view. stapplan -observe consumes the same
// schema to calibrate an offline search from a running daemon.
type Report struct {
	// Assign is the server's current worker assignment.
	Assign []int `json:"assign"`
	// Placement is the first distributed slot's current placement spec
	// (empty for an in-process-only pool).
	Placement string `json:"placement,omitempty"`
	// Calibrated is false while the report's model is still the
	// unobserved seed profile.
	Calibrated bool `json:"calibrated"`
	// WindowCPIs is how many distinct CPIs the observation window held.
	WindowCPIs int `json:"window_cpis"`
	// Tasks holds the per-task observations (min-recv, mean comp/send).
	Tasks []TaskObs `json:"tasks,omitempty"`

	ObservedPeriodSec  float64 `json:"observed_period_sec"`
	PredictedPeriodSec float64 `json:"predicted_period_sec"`
	// DriftFrac is |observed − predicted| / predicted period.
	DriftFrac float64 `json:"drift_frac"`

	ReplanEnabled bool    `json:"replan_enabled"`
	ReplanDrift   float64 `json:"replan_drift,omitempty"`
	ReplansTotal  int64   `json:"replans_total"`

	// Recommended is the planner's best candidate at the current node
	// budget under the calibrated model (nil before any observations).
	Recommended *Recommendation `json:"recommended,omitempty"`
}

// TaskObs is one task's row in a Report.
type TaskObs struct {
	Name    string  `json:"name"`
	RecvSec float64 `json:"recv_min_sec"`
	CompSec float64 `json:"comp_sec"`
	SendSec float64 `json:"send_sec"`
	BusySec float64 `json:"busy_sec"`
	Samples int     `json:"samples"`
}

// Recommendation is the planner's suggested configuration with its
// predicted numbers and the fractional period gain over the current
// assignment.
type Recommendation struct {
	Assign        []int   `json:"assign"`
	Placement     string  `json:"placement,omitempty"`
	PeriodSec     float64 `json:"period_sec"`
	ThroughputCPS float64 `json:"throughput_cpis_per_sec"`
	Eq2LatencySec float64 `json:"eq2_latency_sec"`
	Eq3LatencySec float64 `json:"eq3_latency_sec"`
	// GainFrac is (current predicted period − recommended period) /
	// current predicted period under the same calibrated model.
	GainFrac float64 `json:"gain_frac"`
}

// Observations rebuilds the per-task observation array from a report's
// task rows (for stapplan -observe). ok is false when the report has no
// complete task coverage.
func (r *Report) Observations() (o [pipeline.NumTasks]Observation, ok bool) {
	if len(r.Tasks) != pipeline.NumTasks {
		return o, false
	}
	ok = true
	for t, row := range r.Tasks {
		o[t] = Observation{Recv: row.RecvSec, Comp: row.CompSec, Send: row.SendSec, Samples: row.Samples}
		if row.Samples == 0 {
			ok = false
		}
	}
	return o, ok
}
