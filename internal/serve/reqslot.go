package serve

import "sync"

// requestSlot is the memory one request lives in from its frame header to
// its final response: the Request its body is decoded into as it arrives
// (wire.Reader.Decode), whose cubes keep their memory for the next request
// of the same shape and take their samples straight from the connection.
// Once admitted it is the job's input journal: the cubes a replica reads
// in place and a failover replays from CPI 0.
type requestSlot struct {
	req Request
}

// requestSlots is the server's pool of request slots: a request takes one
// at its frame header (handleConn, the one take site), or is answered
// Busy with its body read past, not kept.
//
// The bound. limit = QueueDepth + replicas (in-process plus distributed),
// the most requests admission lets into the system at once. A slot is
// held by a request being decoded, a queued job, a job a replica loop
// holds, or a job in the failover channel:
//   - the queue holds at most QueueDepth jobs (its capacity);
//   - a replica loop holds one job at a time (runJob, or failDead when it
//     drains a dead pool), and hands a job to failover only as it stops
//     holding it to rebuild. A loop that pulls again takes the failover
//     channel first, so its own hand-off is gone from the channel (taken
//     by it or by another loop) before it holds a new job: the jobs in
//     the channel and the jobs the loops hold are at most one per loop;
//   - a request being decoded holds a slot the queue and the loops do
//     not. With the queue full and every loop holding a job none is left,
//     and the request is Busy at its header — the answer the full queue
//     would have given it after its body.
//
// A slot's memory is the cubes of the last request decoded into it: a
// cube keeps its samples only for a request whose cube has the same
// sample count, and cubes past the request's count are dropped, so they
// hold no more samples than that request's body carried (at most
// wire.MaxFrameBytes), and what a decode makes grows only as the body's
// bytes arrive. The pool holds at most limit × wire.MaxFrameBytes plus its
// cube lists' 8 bytes an entry, and an idle connection holds none of it
// (it keeps only its Reader's read-ahead, at most 64 KiB).
// Slots are allocated lazily on first take; the free list is LIFO, so a
// lightly loaded server reuses its warmest slots.
//
// Ownership. A slot goes back to the free list when nothing can read its
// cubes any more: at once when its request is refused before it reaches
// a replica (decode error, validation, Busy, a deadline already blown,
// shutdown), and when its job completed on its first replica, as the
// final response is produced (ProcessJobOpts has returned; every CPI's
// results are in, so no worker reads the cubes). A job handed to failover
// keeps its slot. Every other end — a fatal error, or success after a
// failover — retires the slot instead (release with reuse false): the
// failed incarnation's workers may still be reading its cubes until
// the rebuild's Abort joins them, so the slot is dropped and the pool
// refills lazily. Until that Abort, a retired slot's memory lives on
// beside the bound, one slot per incarnation being torn down.
type requestSlots struct {
	mu    sync.Mutex
	free  []*requestSlot // LIFO
	held  int            // taken and not yet released
	limit int
}

// take returns a free slot, a new one while fewer than limit exist, or
// nil when every slot is held.
func (p *requestSlots) take() *requestSlot {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.held == p.limit {
		return nil
	}
	p.held++
	if n := len(p.free); n > 0 {
		sl := p.free[n-1]
		p.free = p.free[:n-1]
		return sl
	}
	return new(requestSlot)
}

// release gives a held slot back: to the free list when reuse is set,
// else retired (see the ownership rule at requestSlots).
func (p *requestSlots) release(sl *requestSlot, reuse bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.held--
	if reuse {
		p.free = append(p.free, sl)
	}
}

// inUse returns the number of held slots.
func (p *requestSlots) inUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.held
}
