package dist

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"pstap/internal/mac"
	"pstap/internal/mp"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
)

// Placement assigns each node (members 1..len(p)) an inclusive task range
// [Lo, Hi]. The ranges must tile the pipeline's tasks 0..NumTasks-1 in
// order, so every node hosts a contiguous rank interval of the world.
type Placement [][2]int

// ParsePlacement parses a `-placement` spec: per-node inclusive task
// ranges separated by `/`, e.g. "0-2/3-6" puts Doppler through hard
// weights on node 1 and beamforming through CFAR on node 2. A single task
// may be written without the dash ("3"). An empty spec yields
// DefaultPlacement for the node count, which must not exceed the task
// count: every node hosts at least one task.
func ParsePlacement(s string, nodes int) (Placement, error) {
	if strings.TrimSpace(s) == "" {
		if nodes > pipeline.NumTasks {
			return nil, fmt.Errorf("dist: %d nodes for %d tasks leaves a node without one", nodes, pipeline.NumTasks)
		}
		return DefaultPlacement(nodes), nil
	}
	parts := strings.Split(s, "/")
	if len(parts) != nodes {
		return nil, fmt.Errorf("dist: placement %q has %d ranges for %d nodes", s, len(parts), nodes)
	}
	p := make(Placement, len(parts))
	for i, part := range parts {
		part = strings.TrimSpace(part)
		lo, hi, ok := strings.Cut(part, "-")
		if !ok {
			hi = lo
		}
		l, err1 := strconv.Atoi(strings.TrimSpace(lo))
		h, err2 := strconv.Atoi(strings.TrimSpace(hi))
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("dist: placement %q: node %d range %q: want k or lo-hi", s, i+1, part)
		}
		p[i] = [2]int{l, h}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// DefaultPlacement splits the tasks into contiguous runs as evenly as the
// task count allows — e.g. 2 nodes get tasks 0-3 and 4-6.
func DefaultPlacement(nodes int) Placement {
	if nodes <= 0 {
		return nil
	}
	if nodes > pipeline.NumTasks {
		nodes = pipeline.NumTasks
	}
	p := make(Placement, nodes)
	next := 0
	for i := range p {
		n := (pipeline.NumTasks - next + (nodes - i - 1)) / (nodes - i)
		p[i] = [2]int{next, next + n - 1}
		next += n
	}
	return p
}

// String renders the placement in spec syntax.
func (p Placement) String() string {
	parts := make([]string, len(p))
	for i, r := range p {
		if r[0] == r[1] {
			parts[i] = strconv.Itoa(r[0])
		} else {
			parts[i] = fmt.Sprintf("%d-%d", r[0], r[1])
		}
	}
	return strings.Join(parts, "/")
}

// Validate checks the ranges tile tasks 0..NumTasks-1 in order.
func (p Placement) Validate() error {
	if len(p) == 0 {
		return fmt.Errorf("dist: empty placement")
	}
	next := 0
	for i, r := range p {
		if r[0] != next || r[1] < r[0] {
			return fmt.Errorf("dist: placement %s: node %d range %d-%d does not continue at task %d",
				p, i+1, r[0], r[1], next)
		}
		next = r[1] + 1
	}
	if next != pipeline.NumTasks {
		return fmt.Errorf("dist: placement %s covers tasks 0-%d, want 0-%d", p, next-1, pipeline.NumTasks-1)
	}
	return nil
}

// HostedRanks returns the contiguous global rank interval member hosts
// under the given assignment: the ranks of its task range for nodes, the
// driver rank alone for the coordinator (member 0).
func (p Placement) HostedRanks(a pipeline.Assignment, member int) mp.Group {
	if member == 0 {
		return mp.Group{First: a.Total(), N: 1}
	}
	groups := mp.Layout(a[:])
	lo, hi := p[member-1][0], p[member-1][1]
	first := groups[lo].First
	return mp.Group{First: first, N: groups[hi].First + groups[hi].N - first}
}

// Owners returns the rank→member ownership table for the whole world
// (Assign.Total()+1 ranks, driver last).
func (p Placement) Owners(a pipeline.Assignment) []int {
	owners := make([]int, a.Total()+1)
	for m := 1; m <= len(p); m++ {
		g := p.HostedRanks(a, m)
		for r := g.First; r < g.First+g.N; r++ {
			owners[r] = m
		}
	}
	owners[a.Total()] = 0
	return owners
}

// Tasks reports whether the member hosts the given task.
func (p Placement) Tasks(member int) func(task int) bool {
	if member == 0 {
		return func(int) bool { return false }
	}
	lo, hi := p[member-1][0], p[member-1][1]
	return func(task int) bool { return task >= lo && task <= hi }
}

// NodeSpec names one stapnode of a cluster: its dial address and the task
// range it hosts.
type NodeSpec struct {
	Addr  string
	Tasks [2]int
}

// Manifest is the signed placement document the coordinator hands each
// node in its hello: everything a node needs to host its share of the
// replica — the scene, the worker assignment, the peer table — plus the
// HMAC-SHA256 signature that proves it came from a holder of the cluster
// secret. The same manifest goes to every node; the hello's To field tells
// each node which member it is.
type Manifest struct {
	Session   string // unique per replica incarnation
	Scene     *radar.Scene
	Assign    pipeline.Assignment
	Window    int
	Threads   int
	Nodes     []NodeSpec // member j = Nodes[j-1]
	Heartbeat time.Duration
	// FaultPlan, when non-empty, is an internal/fault plan text every node
	// arms against its own workers and links, seeded by Seed — the
	// distributed face of stapd's chaos mode.
	FaultPlan string
	Seed      int64
	Sig       []byte // HMAC-SHA256 over the signed form (Sign)
}

// Placement reconstructs the Placement from the node specs.
func (m *Manifest) Placement() Placement {
	p := make(Placement, len(m.Nodes))
	for i, n := range m.Nodes {
		p[i] = n.Tasks
	}
	return p
}

// SigPrefix returns a short hex prefix of the manifest signature for log
// correlation: the coordinator and every node print it, so one grep ties
// a session's lines together across machines. "unsigned" before Sign.
func (m *Manifest) SigPrefix() string {
	if len(m.Sig) < 4 {
		return "unsigned"
	}
	return hex.EncodeToString(m.Sig[:4])
}

// Sign encodes the manifest's signed form — the gob of the manifest with
// Sig nil, the bytes a hello carries — and stores their HMAC under the
// cluster secret in Sig. It returns the signed form.
func (m *Manifest) Sign(secret []byte) ([]byte, error) {
	c := *m
	c.Sig = nil
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&c); err != nil {
		return nil, err
	}
	m.Sig = mac.Sum(secret, buf.Bytes())
	return buf.Bytes(), nil
}

// verifyManifest is the receiving side of Sign: it checks sig over the
// signed form exactly as received, and only then decodes it — bytes from
// a peer that does not hold the cluster secret never reach the decoder.
func verifyManifest(secret, signed, sig []byte) (*Manifest, error) {
	if !mac.Valid(secret, signed, sig) {
		return nil, errors.New("dist: manifest signature does not verify under the cluster secret")
	}
	m := new(Manifest)
	if err := gob.NewDecoder(bytes.NewReader(signed)).Decode(m); err != nil {
		return nil, fmt.Errorf("dist: decode signed manifest: %w", err)
	}
	m.Sig = sig
	return m, nil
}

// peerAuth authenticates a node→node hello: an HMAC over the session and
// the (from, to) member pair, so a parked peer connection can be verified
// before the manifest that names it has even arrived.
func peerAuth(secret []byte, session string, from, to int) []byte {
	return mac.Sum(secret, fmt.Appendf(nil, "peer|%s|%d|%d", session, from, to))
}

// newSessionID returns a fresh random session identifier.
func newSessionID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}
