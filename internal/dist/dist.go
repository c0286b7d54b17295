// Package dist is the distributed execution plane: it runs one logical
// pipeline replica across multiple OS processes by implementing the
// mp.Transport seam over TCP. A replica's world of Assign.Total()+1 ranks
// is partitioned among members — member 0 is the coordinator process
// (hosting only the driver rank, i.e. the feeder and collector of a
// pipeline.Stream), members 1..M are stapnode agents each hosting a
// contiguous run of task groups per a Placement. Worker code is untouched:
// internal/pipeline spawns the same worker bodies against a partial
// mp.World whose non-hosted traffic rides internal/wire frames with
// per-link credit-based flow control and heartbeats. Every frame is flat:
// its header names its kind (hello, data, credit, ping/pong, ready,
// goodbye) and its body holds exactly that kind's
// fields — a data frame's pipeline message in pipeline.AppendMessage's
// form, samples as float64 bit patterns. Every frame starts with the wire
// format version, so every process of a replica must be the same build:
// a node or coordinator from another build is refused at the hello with
// an error naming both versions — never a mis-decode.
//
// Wiring: the coordinator and each node open their share of a session the
// same way (openSession). The coordinator dials every node and sends the
// HMAC-signed placement Manifest as its hello — the signed bytes and their
// MAC, which the node checks before it decodes a byte of them; node j
// then dials nodes 1..j-1, so every member pair shares exactly one
// full-duplex link. A link failure — read error, heartbeat loss, or a
// peer's goodbye carrying a fault — aborts the local world with a typed
// *LinkError as its cause; the coordinator's Replica wraps that into
// *ReplicaLostError, which internal/serve maps to StatusReplicaLost and
// answers by recycling the slot.
package dist

import (
	"fmt"
	"time"

	"pstap/internal/fault"
	"pstap/internal/mp"
	"pstap/internal/obs"
	"pstap/internal/pipeline"
)

// Link timings and the credit window. Only the heartbeat is tunable
// (ClusterConfig.Heartbeat, shipped in the manifest); every link uses
// DefaultWindow at both ends, and Connect's phases are bounded by the two
// timeouts.
//
// Besides the credit window's frames, a link's reader keeps the messages
// it decodes in slots (edgeSlots): pipeline.RingDepth of the session's
// in-flight window (the manifest's Window, 8 by default, so 9) per edge.
// That is at most depth × the edge's largest message, summed over the
// edges a member receives: at radar.Medium() under A10 split 0-2/3-6 and
// window 8, 9 × 2.1 MB of raw slabs on node 1 and 9 × 3.2 MB of pieces and
// weights on node 2, 45.6 MiB on the nodes. No data frame is longer than
// the session's largest message (maxDataBytes), refused at its header.
const (
	DefaultHeartbeat    = 500 * time.Millisecond
	DefaultWindow       = 64 // per-link, per-direction data-frame credits
	DefaultDialTimeout  = 5 * time.Second
	DefaultReadyTimeout = 10 * time.Second
)

// heartbeatMisses is how many silent heartbeat intervals mark a link dead.
const heartbeatMisses = 3

// hosted is one member's live share of a replica session: the transport
// to its peers, the partial world bound to it and the stream running the
// ranks it hosts.
type hosted struct {
	tr    *Transport
	world *mp.World
	st    *pipeline.Stream
}

// openSession builds member's share of the replica man describes, the
// coordinator's (member 0: the driver rank) and a node's (its task
// groups) alike: a transport routing every other rank to the member
// hosting it, the partial world bound to it, and the hosted stream. col,
// when non-nil, journals spans and wire costs; inj, when non-nil, arms
// the links — and a node's workers: the coordinator's injector is
// link-plane only. Links attach afterwards, through runLink.
func openSession(man *Manifest, member int, col *obs.Collector, inj *fault.Injector, cpiTimeout time.Duration) (hosted, error) {
	p := man.Placement()
	if err := p.Validate(); err != nil {
		return hosted{}, err
	}
	tr := newTransport(member, len(man.Nodes), p.Owners(man.Assign), man.Heartbeat, inj)
	world := mp.NewPartialWorld(man.Assign.Total()+1, p.HostedRanks(man.Assign, member), tr)
	tr.world, tr.obs = world, col
	cfg := pipeline.StreamConfig{Scene: man.Scene, Assign: man.Assign, Window: man.Window,
		Threads: man.Threads, Obs: col, CPITimeout: cpiTimeout}
	if inj != nil {
		inj.Bind(world.Done())
		if member != 0 {
			cfg.Fault = inj
		}
	}
	st, err := pipeline.NewHostedStream(cfg, pipeline.Hosting{World: world, Driver: member == 0, Tasks: p.Tasks(member)})
	if err != nil {
		world.Abort()
		return hosted{}, err
	}
	// The stream has validated the scene and the assignment they derive from.
	tr.depth, tr.maxData = pipeline.RingDepth(man.Window), maxDataBytes(man)
	return hosted{tr: tr, world: world, st: st}, nil
}

// LinkError is the typed connection-loss failure: the first wire-level
// error observed on the link to a peer member. It becomes the world's
// abort cause, so a dead TCP connection surfaces through
// pipeline.Stream.ProcessJob exactly like a local worker fault does.
type LinkError struct {
	Member int    // peer member index (0 = coordinator)
	Addr   string // peer address as dialed or accepted
	Err    error  // underlying wire error
}

// Error implements error.
func (e *LinkError) Error() string {
	return fmt.Sprintf("dist: link to member %d (%s) lost: %v", e.Member, e.Addr, e.Err)
}

// Unwrap exposes the underlying wire error to errors.Is/As.
func (e *LinkError) Unwrap() error { return e.Err }

// ReplicaLostError is what a distributed replica's ProcessJob returns when
// the replica died under the job — a node process was killed, a link
// dropped, or a remote worker faulted. The serving layer treats it as
// fatal for the slot (StatusReplicaLost) and re-dials the cluster.
type ReplicaLostError struct {
	Cluster string // cluster name from the config
	Session string // the session that died
	Cause   error  // the typed cause (*LinkError, remote fault, ...)
}

// Error implements error.
func (e *ReplicaLostError) Error() string {
	return fmt.Sprintf("dist: replica %s (session %s) lost: %v", e.Cluster, e.Session, e.Cause)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *ReplicaLostError) Unwrap() error { return e.Cause }

// LinkStats is one link's transfer counters, for the observability
// surfaces (stapd's JSON snapshot and Prometheus exposition).
type LinkStats struct {
	Member    int    `json:"member"`
	Addr      string `json:"addr"`
	MsgsSent  int64  `json:"msgs_sent"`
	MsgsRecv  int64  `json:"msgs_recv"`
	BytesSent int64  `json:"bytes_sent"`
	BytesRecv int64  `json:"bytes_recv"`
	// RTTNs is an EWMA of the heartbeat round-trip in nanoseconds (0
	// until the first pong).
	RTTNs int64 `json:"rtt_ns"`
	// OffsetNs is an EWMA estimate of the peer's clock minus the local
	// clock in nanoseconds, from the NTP-style ping/pong midpoint (0
	// until the first stamped pong). The cluster trace merger uses it to
	// re-anchor node journals onto the coordinator's timeline.
	OffsetNs int64 `json:"offset_ns"`
	// Cumulative wire-cost counters for data frames on this link, in
	// nanoseconds: flat encode on send (SerNs), flat decode on receive
	// (DeserNs), socket copy in both directions (XmitNs), and sender time
	// blocked on the credit window (StallNs) — the per-link running totals
	// behind the attribution engine's per-hop wire-tax view.
	SerNs   int64 `json:"ser_ns"`
	DeserNs int64 `json:"deser_ns"`
	XmitNs  int64 `json:"xmit_ns"`
	StallNs int64 `json:"stall_ns"`
	// Credits is the sender's remaining data-frame tokens and Window the
	// per-direction total (DefaultWindow) — the flow-control state the
	// flight recorder dumps to show whether a death was a stall or a wire
	// loss.
	Credits int `json:"credits"`
	Window  int `json:"window"`
}
