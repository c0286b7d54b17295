// Package fault is a deterministic, seedable fault-injection plane for
// the parallel pipeline. A Plan is a list of rules of the form
//
//	task:worker:cpi:kind
//
// where task is a pipeline task name (doppler, easyweight, hardweight,
// easybf, hardbf, pulse, cfar) or index 0-6, worker and cpi are integers,
// and any of the three may be the wildcard `*`. Kinds:
//
//	panic        the worker goroutine panics mid-loop
//	hang         the worker blocks until its world is aborted (watchdog bait)
//	slow(d)      the worker sleeps for duration d (e.g. slow(250ms))
//	droppayload  the payload of a message destined to the worker is replaced
//	             with nil, corrupting the transfer (the receiver's type
//	             assertion then panics and supervision takes over)
//	err          the worker raises the typed ErrInjected failure
//	droplink     a distributed transport link refuses the send with
//	             ErrLinkDropped, which the link layer treats as a wire
//	             failure (the replica dies with a typed link error)
//	slowlink(d)  the link delays the frame by d before sending
//	partition(d) the link goes dark in both directions for d from the
//	             first matched frame: outbound frames block and inbound
//	             frames are held unprocessed, so no heartbeat traffic
//	             lands on either side. A window shorter than the
//	             heartbeat-miss threshold heals invisibly (the held
//	             frames deliver late, like TCP after a partition); a
//	             longer one trips death detection on both ends.
//	flap(p)      the link alternates alive/dark with half-period p from
//	             the first matched frame, modelling a flapping route;
//	             implies the repeat suffix.
//
// The link kinds address the distributed transport plane instead of a
// worker: use the pseudo-task `link`, with the worker field naming the
// peer member index and the cpi field the frame sequence number on that
// link (internal/dist calls Injector.LinkSend per outbound data frame).
// partition and flap gate whole time windows rather than single frames,
// so their cpi field should be `*`.
//
// A kind may carry two optional suffixes, in order: `*` makes the rule
// fire on every match instead of exactly once (the default, so a restarted
// pipeline replaying the same CPI indices does not re-kill itself), and
// `@p` (0 < p <= 1) makes each firing probabilistic. Probabilistic
// decisions are a pure hash of (seed, rule, task, worker, cpi), so a given
// seed yields the same fault schedule on every run regardless of thread
// timing — the property that makes chaos tests reproducible.
//
// Rules are separated by `;` or `,`:
//
//	doppler:0:3:panic; cfar:*:*:slow(10ms)*@0.25
//
// The compute kinds (panic, hang, slow, err) fire through
// Injector.Compute, called at the top of every pipeline worker's CPI
// loop; droppayload fires through Injector.Message, wired into the
// mp.World send hook. One Injector serves one pipeline world (Bind ties
// hang/slow interruption to that world's abort); derive a fresh Injector
// per world from the shared Plan, which carries the once-only state
// across restarts.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pstap/internal/mp"
)

// Kind enumerates the injectable fault kinds.
type Kind int

const (
	KindPanic Kind = iota
	KindHang
	KindSlow
	KindDropPayload
	KindErr
	KindDropLink
	KindSlowLink
	KindPartition
	KindFlap
)

// String renders the kind as it appears in a plan.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindHang:
		return "hang"
	case KindSlow:
		return "slow"
	case KindDropPayload:
		return "droppayload"
	case KindErr:
		return "err"
	case KindDropLink:
		return "droplink"
	case KindSlowLink:
		return "slowlink"
	case KindPartition:
		return "partition"
	case KindFlap:
		return "flap"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// class sorts kinds by the injection point they fire from: the worker
// compute loop, the in-process message plane, or a transport link.
type class int

const (
	classCompute class = iota
	classMessage
	classLink
)

func (k Kind) class() class {
	switch k {
	case KindDropPayload:
		return classMessage
	case KindDropLink, KindSlowLink, KindPartition, KindFlap:
		return classLink
	}
	return classCompute
}

// windowed reports whether the kind gates a time window on a link
// (partition, flap) rather than acting on a single frame — these are
// evaluated by LinkHold/LinkHeld, not LinkSend.
func (k Kind) windowed() bool { return k == KindPartition || k == KindFlap }

// ErrInjected is the failure raised by a KindErr rule — the typed,
// recognizable "this fault was injected on purpose" error.
var ErrInjected = errors.New("fault: injected error")

// ErrLinkDropped is the failure a KindDropLink rule makes a transport
// link report for an outbound frame — typed so chaos tests can tell an
// injected wire failure from a real one.
var ErrLinkDropped = errors.New("fault: injected link drop")

// Wildcard matches any task, worker or CPI in a rule.
const Wildcard = -1

// Rule is one fault: where it strikes and what it does.
type Rule struct {
	Task, Worker, CPI int // Wildcard matches anything
	Kind              Kind
	Dur               time.Duration // KindSlow sleep
	Prob              float64       // (0,1]; 1 fires on every matched point
	Repeat            bool          // fire on every match, not just the first
}

// String renders the rule in plan syntax.
func (r Rule) String() string {
	f := func(v int) string {
		if v == Wildcard {
			return "*"
		}
		return strconv.Itoa(v)
	}
	task := f(r.Task)
	if r.Task == LinkTask {
		task = "link"
	}
	kind := r.Kind.String()
	if r.Kind == KindSlow || r.Kind == KindSlowLink || r.Kind.windowed() {
		kind += "(" + r.Dur.String() + ")"
	}
	if r.Repeat && r.Kind != KindFlap {
		kind += "*"
	}
	if r.Prob > 0 && r.Prob < 1 {
		kind += "@" + strconv.FormatFloat(r.Prob, 'g', -1, 64)
	}
	return fmt.Sprintf("%s:%s:%s:%s", task, f(r.Worker), f(r.CPI), kind)
}

// matches reports whether the rule covers the given injection point.
func (r Rule) matches(task, worker, cpi int) bool {
	return (r.Task == Wildcard || r.Task == task) &&
		(r.Worker == Wildcard || r.Worker == worker) &&
		(r.CPI == Wildcard || r.CPI == cpi)
}

// Plan is a parsed fault plan plus the shared fire-once state. The state
// lives on the Plan, not the Injector, so a rule that killed one pipeline
// instance stays spent when a supervisor spawns the replacement — the
// restarted replica does not re-die on the same rule.
type Plan struct {
	Rules []Rule
	fired []atomic.Bool
	// winAnchor is the unix-nano anchor of each windowed link rule
	// (partition, flap): the moment of its first matched frame, set when
	// the rule claims its fire. Shared across injectors like the fired
	// state, so a recycled replica does not re-enter a spent partition.
	winAnchor []atomic.Int64
}

// taskIndex maps plan task names to pipeline task indices (pipeline task
// order: Doppler, easy weight, hard weight, easy BF, hard BF, pulse
// compression, CFAR).
var taskIndex = map[string]int{
	"doppler":    0,
	"easyweight": 1, "easyw": 1,
	"hardweight": 2, "hardw": 2,
	"easybf": 3,
	"hardbf": 4,
	"pulse":  5, "pulsecomp": 5,
	"cfar": 6,
}

// numTasks bounds numeric task indices in rules.
const numTasks = 7

// LinkTask is the pseudo-task index the `link` rule address resolves to;
// it sits past the pipeline tasks so no compute rule can collide with it.
const LinkTask = 7

// ParsePlan parses a plan string (rules separated by `;` or `,`). An
// empty string yields an empty, valid plan.
func ParsePlan(s string) (*Plan, error) {
	p := &Plan{}
	for _, raw := range strings.FieldsFunc(s, func(r rune) bool { return r == ';' || r == ',' }) {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		r, err := parseRule(raw)
		if err != nil {
			return nil, err
		}
		p.Rules = append(p.Rules, r)
	}
	p.fired = make([]atomic.Bool, len(p.Rules))
	p.winAnchor = make([]atomic.Int64, len(p.Rules))
	return p, nil
}

// MustParsePlan is ParsePlan for static plans in tests.
func MustParsePlan(s string) *Plan {
	p, err := ParsePlan(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String renders the plan back to its rule syntax.
func (p *Plan) String() string {
	parts := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, "; ")
}

func parseRule(s string) (Rule, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return Rule{}, fmt.Errorf("fault: rule %q: want task:worker:cpi:kind", s)
	}
	r := Rule{Prob: 1}
	var err error
	if r.Task, err = parseTask(strings.TrimSpace(parts[0])); err != nil {
		return Rule{}, fmt.Errorf("fault: rule %q: %w", s, err)
	}
	if r.Worker, err = parseIndex(strings.TrimSpace(parts[1])); err != nil {
		return Rule{}, fmt.Errorf("fault: rule %q: bad worker: %w", s, err)
	}
	if r.CPI, err = parseIndex(strings.TrimSpace(parts[2])); err != nil {
		return Rule{}, fmt.Errorf("fault: rule %q: bad cpi: %w", s, err)
	}
	if err = parseKind(strings.TrimSpace(parts[3]), &r); err != nil {
		return Rule{}, fmt.Errorf("fault: rule %q: %w", s, err)
	}
	return r, nil
}

func parseTask(s string) (int, error) {
	if s == "*" {
		return Wildcard, nil
	}
	if strings.EqualFold(s, "link") {
		return LinkTask, nil
	}
	if i, ok := taskIndex[strings.ToLower(s)]; ok {
		return i, nil
	}
	i, err := strconv.Atoi(s)
	if err != nil || i < 0 || i >= numTasks {
		return 0, fmt.Errorf("unknown task %q", s)
	}
	return i, nil
}

func parseIndex(s string) (int, error) {
	if s == "*" {
		return Wildcard, nil
	}
	i, err := strconv.Atoi(s)
	if err != nil || i < 0 {
		return 0, fmt.Errorf("want a non-negative integer or *, got %q", s)
	}
	return i, nil
}

func parseKind(s string, r *Rule) error {
	// Optional suffixes, outermost first: @prob, then the repeat star.
	if at := strings.LastIndexByte(s, '@'); at >= 0 {
		p, err := strconv.ParseFloat(s[at+1:], 64)
		if err != nil || p <= 0 || p > 1 {
			return fmt.Errorf("bad probability %q (want 0 < p <= 1)", s[at+1:])
		}
		r.Prob = p
		s = s[:at]
	}
	if strings.HasSuffix(s, "*") {
		r.Repeat = true
		s = strings.TrimSuffix(s, "*")
	}
	if strings.HasPrefix(s, "slow(") && strings.HasSuffix(s, ")") {
		d, err := time.ParseDuration(s[len("slow(") : len(s)-1])
		if err != nil || d <= 0 {
			return fmt.Errorf("bad slow duration in %q", s)
		}
		r.Kind, r.Dur = KindSlow, d
		return nil
	}
	if strings.HasPrefix(s, "slowlink(") && strings.HasSuffix(s, ")") {
		d, err := time.ParseDuration(s[len("slowlink(") : len(s)-1])
		if err != nil || d <= 0 {
			return fmt.Errorf("bad slowlink duration in %q", s)
		}
		r.Kind, r.Dur = KindSlowLink, d
		return nil
	}
	if strings.HasPrefix(s, "partition(") && strings.HasSuffix(s, ")") {
		d, err := time.ParseDuration(s[len("partition(") : len(s)-1])
		if err != nil || d <= 0 {
			return fmt.Errorf("bad partition duration in %q", s)
		}
		r.Kind, r.Dur = KindPartition, d
		return nil
	}
	if strings.HasPrefix(s, "flap(") && strings.HasSuffix(s, ")") {
		d, err := time.ParseDuration(s[len("flap(") : len(s)-1])
		if err != nil || d <= 0 {
			return fmt.Errorf("bad flap half-period in %q", s)
		}
		r.Kind, r.Dur = KindFlap, d
		r.Repeat = true // a flap is periodic by definition
		return nil
	}
	switch s {
	case "panic":
		r.Kind = KindPanic
	case "hang":
		r.Kind = KindHang
	case "droppayload":
		r.Kind = KindDropPayload
	case "err":
		r.Kind = KindErr
	case "droplink":
		r.Kind = KindDropLink
	default:
		return fmt.Errorf("unknown kind %q", s)
	}
	return nil
}

// Injector evaluates a Plan at one pipeline world's injection points.
// Derive one per world with Plan.Injector; the methods are safe for
// concurrent use by the world's worker goroutines.
type Injector struct {
	plan  *Plan
	seed  int64
	done  atomic.Value // <-chan struct{}
	fires atomic.Int64
}

// Injector derives a fresh per-world injector. seed drives the
// probabilistic rules deterministically; the fire-once state is shared
// with every other injector of the same plan.
func (p *Plan) Injector(seed int64) *Injector {
	return &Injector{plan: p, seed: seed}
}

// Bind ties hang and slow faults to the world's abort channel so a
// watchdog or shutdown can reap them. Call it once, after the world is
// created and before its workers start.
func (in *Injector) Bind(done <-chan struct{}) { in.done.Store(done) }

// Fires returns how many faults this injector has fired.
func (in *Injector) Fires() int64 { return in.fires.Load() }

// fire finds the first matching rule of the wanted class (compute,
// message or link) that wins its probability roll and its once-only claim.
func (in *Injector) fire(task, worker, cpi int, c class) *Rule {
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if r.Kind.class() != c || r.Kind.windowed() || !r.matches(task, worker, cpi) {
			continue
		}
		if r.Prob < 1 && !in.roll(i, task, worker, cpi, r.Prob) {
			continue
		}
		if !r.Repeat && !in.plan.fired[i].CompareAndSwap(false, true) {
			continue
		}
		in.fires.Add(1)
		return r
	}
	return nil
}

// roll is the deterministic probability decision: a hash of (seed, rule,
// point) mapped to [0,1).
func (in *Injector) roll(rule, task, worker, cpi int, p float64) bool {
	h := fnv.New64a()
	var buf [40]byte
	put := func(off int, v int64) {
		for b := 0; b < 8; b++ {
			buf[off+b] = byte(v >> (8 * b))
		}
	}
	put(0, in.seed)
	put(8, int64(rule))
	put(16, int64(task))
	put(24, int64(worker))
	put(32, int64(cpi))
	h.Write(buf[:])
	return float64(h.Sum64()>>11)/(1<<53) < p
}

// Compute runs the compute-phase faults for one worker-loop iteration.
// It may sleep (slow), block until the world aborts (hang, after which it
// unwinds like any aborted blocking call), or panic (panic, err) — the
// supervision wrapper above the worker converts the panic into a
// structured WorkerFault.
func (in *Injector) Compute(task, worker, cpi int) {
	r := in.fire(task, worker, cpi, classCompute)
	if r == nil {
		return
	}
	switch r.Kind {
	case KindPanic:
		panic(fmt.Sprintf("fault: injected panic (task %d worker %d cpi %d)", task, worker, cpi))
	case KindErr:
		panic(fmt.Errorf("%w (task %d worker %d cpi %d)", ErrInjected, task, worker, cpi))
	case KindHang:
		<-in.doneCh()
		panic(mp.ErrAborted)
	case KindSlow:
		t := time.NewTimer(r.Dur)
		defer t.Stop()
		select {
		case <-t.C:
		case <-in.doneCh():
			panic(mp.ErrAborted)
		}
	}
}

// Message runs the message-plane faults for one send whose destination
// resolves to (task, worker) at the given CPI: a droppayload rule
// replaces the payload with nil while the message itself is still
// delivered, so the receiver observes a corrupt transfer.
func (in *Injector) Message(task, worker, cpi int, data any) any {
	if in.fire(task, worker, cpi, classMessage) != nil {
		return nil
	}
	return data
}

// LinkSend runs the link-plane faults for one outbound data frame on a
// distributed transport link: member is the peer member index, seq the
// frame sequence number on that link. A slowlink rule delays the frame; a
// droplink rule refuses it with ErrLinkDropped, which the caller treats
// exactly like a wire failure. Safe for concurrent use by link writers.
func (in *Injector) LinkSend(member, seq int) error {
	r := in.fire(LinkTask, member, seq, classLink)
	if r == nil {
		return nil
	}
	switch r.Kind {
	case KindDropLink:
		return fmt.Errorf("%w (member %d seq %d)", ErrLinkDropped, member, seq)
	case KindSlowLink:
		t := time.NewTimer(r.Dur)
		defer t.Stop()
		select {
		case <-t.C:
		case <-in.doneCh():
		}
	}
	return nil
}

// LinkHold blocks while a partition or flap window covering the link to
// member is dark, modelling a severed or flapping route: the transport
// calls it per data frame, so held traffic is delayed — not lost —
// exactly like TCP across a short partition, while heartbeat silence
// accumulates on both sides. The hold is interruptible by the bound
// world's abort. An unopened partition or flap rule anchors its window
// at the first matched call; transports call LinkHold for data frames
// only, so a window cannot open during connection setup — control
// traffic rides through LinkHoldPassive instead.
func (in *Injector) LinkHold(member int) {
	in.linkHold(member, true)
}

// LinkHoldPassive blocks like LinkHold while a window covering the link
// to member is dark, but never anchors a new one: control frames (ready,
// pings and their echoes) ride out an open partition without starting one.
func (in *Injector) LinkHoldPassive(member int) {
	in.linkHold(member, false)
}

func (in *Injector) linkHold(member int, open bool) {
	for {
		until := in.darkUntil(member, open)
		if until == 0 {
			return
		}
		d := time.Duration(until - time.Now().UnixNano())
		if d <= 0 {
			continue // window just closed; re-evaluate (a flap may chain)
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-in.doneCh():
			t.Stop()
			return
		}
		t.Stop()
	}
}

// LinkHeld reports, without blocking or anchoring new windows, whether
// the link to member is currently inside a dark partition or flap window
// — the heartbeat loop's cheap check for suppressing pings.
func (in *Injector) LinkHeld(member int) bool {
	return in.darkUntil(member, false) != 0
}

// darkUntil returns the latest unix-nano end of any dark window covering
// the link to member, or 0 when the link is clear. open permits
// unanchored rules to claim their fire and anchor at now.
func (in *Injector) darkUntil(member int, open bool) int64 {
	var dark int64
	now := time.Now().UnixNano()
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if !r.Kind.windowed() || !r.matches(LinkTask, member, 0) {
			continue
		}
		anchor := in.plan.winAnchor[i].Load()
		if anchor == 0 {
			if !open {
				continue
			}
			if r.Prob < 1 && !in.roll(i, LinkTask, member, 0, r.Prob) {
				continue
			}
			if !in.plan.fired[i].CompareAndSwap(false, true) {
				// A concurrent caller is anchoring; pick the window up on
				// the next evaluation.
				continue
			}
			in.plan.winAnchor[i].Store(now)
			in.fires.Add(1)
			anchor = now
		}
		var until int64
		switch r.Kind {
		case KindPartition:
			if end := anchor + int64(r.Dur); now < end {
				until = end
			}
		case KindFlap:
			// Alive during even half-periods from the anchor, dark during
			// odd ones.
			phase := (now - anchor) / int64(r.Dur)
			if phase%2 == 1 {
				until = anchor + (phase+1)*int64(r.Dur)
			}
		}
		if until > dark {
			dark = until
		}
	}
	return dark
}

// doneCh returns the bound abort channel; an unbound injector blocks hang
// faults forever (pipelines always Bind, standalone users must too).
func (in *Injector) doneCh() <-chan struct{} {
	if c, ok := in.done.Load().(<-chan struct{}); ok {
		return c
	}
	return nil
}
