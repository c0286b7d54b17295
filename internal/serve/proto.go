// Package serve turns the parallel pipelined STAP system into a network
// service: stapd (cmd/stapd) listens on TCP, accepts CPI-cube jobs as
// flat internal/wire frames (the cubes' samples as float64 bit patterns
// behind a fixed header), queues them in a
// bounded admission queue with explicit backpressure, and processes them
// on a pool of persistent pipeline replicas (pipeline.Stream) — the
// serving-layer realization of the replicated-pipelines extension the
// paper's conclusion proposes. A JSON metrics endpoint exposes queue
// depth, accept/reject/complete counters, per-replica utilization and
// end-to-end latency percentiles, turning the paper's eq. (1)–(3)
// steady-state analysis into a measurable SLO.
package serve

import (
	"fmt"
	"time"

	"pstap/internal/cube"
	"pstap/internal/stap"
	"pstap/internal/wire"
)

// Wire protocol: the client sends Request frames and the server answers
// with one Response frame per request, matched by ID. Responses may
// arrive out of submission order (jobs run on different replicas), so a
// client must demultiplex by ID. Each frame is one internal/wire frame
// whose body is the message's flat form (AppendFlat/DecodeFlat below:
// every field in declaration order), hardened against truncation,
// corrupt lengths and counts the frame cannot hold. Every frame carries
// the wire format version: a frame from another build is answered with
// StatusBadRequest naming both versions, and the connection is closed.

// Request is one client frame: a job holding an independent CPI sequence.
// The cubes must match the server scene's dimensions (K x J x N in raw
// axis order). The job is processed with fresh adaptive-weight state, so
// its detections are bit-identical to the serial reference processing of
// the same cubes.
type Request struct {
	// ID is the client's correlation token, echoed in the Response.
	ID uint64
	// CPIs is the job payload, processed as one temporal sequence.
	CPIs []*cube.Cube
	// Trace requests a per-job Gantt execution trace. It is honored only
	// when the server was started with a trace directory; the Response
	// names the file written.
	Trace bool
	// DeadlineMs, when positive, bounds the job's total server-side
	// residence (queue wait plus service) in milliseconds. Admission
	// rejects the job outright when the estimated queue wait already
	// exceeds it; a job that expires while queued or running is answered
	// StatusDeadlineExceeded and its remaining CPIs are aborted all the
	// way down to remote stapnode workers. Zero means no deadline.
	DeadlineMs int64
}

// AppendFlat implements wire.Flattener.
func (r *Request) AppendFlat(e *wire.Enc) error {
	e.Uint64(r.ID)
	wire.PutSlice(e, r.CPIs, (*wire.Enc).Cube)
	e.Bool(r.Trace)
	e.Int64(r.DeadlineMs)
	return nil
}

// DecodeFlat implements wire.FlatDecoder. It decodes into r's cubes,
// reusing their memory, so a server that keeps one Request per request
// slot decodes a warm slot without allocating.
func (r *Request) DecodeFlat(d *wire.Dec) error {
	r.ID = d.Uint64()
	r.CPIs = wire.GetSliceInto(d, r.CPIs, 1, (*wire.Dec).CubeInto)
	r.Trace = d.Bool()
	r.DeadlineMs = d.Int64()
	return d.Err()
}

// Status classifies a Response.
type Status int

const (
	// StatusOK means the job completed and Detections is valid.
	StatusOK Status = iota
	// StatusBusy means the server could not hold the job — the admission
	// queue was full, or every request slot was taken (the request's body
	// was read past, not kept) — and rejected it without queueing: the
	// backpressure signal. The client should retry after RetryAfterMs.
	StatusBusy
	// StatusError means the job failed for an unclassified reason; Err
	// describes why.
	StatusError
	// StatusBadRequest means the job failed validation (empty, nil cube,
	// wrong dimensions) and was never admitted.
	StatusBadRequest
	// StatusReplicaLost means the replica processing the job died (a
	// supervised worker fault); the job's partial work is discarded and
	// the server recycles the replica. The job itself may be retried.
	StatusReplicaLost
	// StatusTimeout means the job exceeded the server's per-CPI deadline
	// and the replica was reaped by the watchdog.
	StatusTimeout
	// StatusAborted means the server is shutting down and the job was cut
	// short or refused admission.
	StatusAborted
	// StatusDeadlineExceeded means the job's client-supplied deadline
	// expired before it finished: admission predicted the queue wait alone
	// would blow it, or the deadline fired while the job was queued or
	// mid-processing. Partial work is discarded; retrying with the same
	// deadline will likely fail the same way unless load drops.
	StatusDeadlineExceeded
)

// String renders the status name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBusy:
		return "busy"
	case StatusError:
		return "error"
	case StatusBadRequest:
		return "bad-request"
	case StatusReplicaLost:
		return "replica-lost"
	case StatusTimeout:
		return "timeout"
	case StatusAborted:
		return "aborted"
	case StatusDeadlineExceeded:
		return "deadline-exceeded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Response is one server frame, answering the Request with matching ID.
type Response struct {
	ID     uint64
	Status Status
	// RetryAfterMs is the suggested backoff when Status is StatusBusy.
	RetryAfterMs int64
	// Err describes a StatusError.
	Err string
	// Detections[i] is the report for the job's CPI i.
	Detections [][]stap.Detection
	// QueueNs and ServiceNs split the server-side residence time of the
	// job: time waiting in the admission queue and time on a replica.
	QueueNs, ServiceNs int64
	// TraceFile is the server-side path of the Gantt trace, when requested
	// and enabled.
	TraceFile string
}

// AppendFlat implements wire.Flattener.
func (r *Response) AppendFlat(e *wire.Enc) error {
	e.Uint64(r.ID)
	e.Int(int(r.Status))
	e.Int64(r.RetryAfterMs)
	e.Text(r.Err)
	wire.PutSlice(e, r.Detections, (*wire.Enc).Detections)
	e.Int64(r.QueueNs)
	e.Int64(r.ServiceNs)
	e.Text(r.TraceFile)
	return nil
}

// DecodeFlat implements wire.FlatDecoder.
func (r *Response) DecodeFlat(d *wire.Dec) error {
	r.ID = d.Uint64()
	r.Status = Status(d.Int())
	r.RetryAfterMs = d.Int64()
	r.Err = d.Text()
	r.Detections = wire.GetSlice(d, 8, (*wire.Dec).Detections)
	r.QueueNs = d.Int64()
	r.ServiceNs = d.Int64()
	r.TraceFile = d.Text()
	return d.Err()
}

// BusyError is returned by Client.Submit when the server rejected the job
// with backpressure; RetryAfter is the server's suggested backoff.
type BusyError struct {
	RetryAfter time.Duration
}

// Error implements error.
func (e *BusyError) Error() string {
	return fmt.Sprintf("serve: server busy, retry after %v", e.RetryAfter)
}

// JobError is returned by Client.Submit when the server answered with a
// failure status; Code carries the server's typed classification so
// clients can distinguish a permanently-bad job (StatusBadRequest) from a
// retryable infrastructure failure (StatusReplicaLost, StatusTimeout).
type JobError struct {
	Code Status
	Msg  string
}

// Error implements error.
func (e *JobError) Error() string {
	return fmt.Sprintf("serve: job failed (%s): %s", e.Code, e.Msg)
}
