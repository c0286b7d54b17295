package mp

import (
	"sync"
	"testing"
)

// The tests in this file drive the matching engine with the exchange
// shapes of MPI's collectives, written the way the pipeline writes its
// exchanges: explicit sends and receives that name their source. mp has
// no collective operations of its own.

// runGroup runs f on every rank of g in w and waits.
func runGroup(w *World, g Group, f func(c *Comm, rank int)) {
	var wg sync.WaitGroup
	for _, r := range g.Ranks() {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			f(w.Comm(r), r)
		}(r)
	}
	wg.Wait()
}

// gather receives one message per member of g on tag, in group order.
func gather(c *Comm, g Group, tag int) []any {
	out := make([]any, g.N)
	for i, src := range g.Ranks() {
		out[i] = c.Recv(src, tag)
	}
	return out
}

// TestBcast: a root sends one payload to every member, itself included.
func TestBcast(t *testing.T) {
	const n, root = 5, 2
	g := Group{First: 0, N: n}
	got := make([]any, n)
	runGroup(NewWorld(n), g, func(c *Comm, rank int) {
		if rank == root {
			for _, dst := range g.Ranks() {
				c.Send(dst, 100, "payload")
			}
		}
		got[rank] = c.Recv(root, 100)
	})
	for r, v := range got {
		if v != "payload" {
			t.Errorf("rank %d got %v", r, v)
		}
	}
}

// TestGather: members send to a root in reverse rank order, and the root's
// source-matched receives still assemble them in rank order.
func TestGather(t *testing.T) {
	const n, root = 6, 3
	w := NewWorld(n)
	g := Group{First: 0, N: n}
	for r := n - 1; r >= 0; r-- {
		w.Comm(r).Send(root, 200, r*10)
	}
	got := gather(w.Comm(root), g, 200)
	for i, v := range got {
		if v != i*10 {
			t.Errorf("slot %d = %v", i, v)
		}
	}
	if d := w.QueueDepths()[root]; d != 0 {
		t.Errorf("root holds %d messages after the gather", d)
	}
}

// TestAllGather: every member sends its rank to every member, and each
// receives all of them in rank order.
func TestAllGather(t *testing.T) {
	const n = 4
	g := Group{First: 0, N: n}
	results := make([][]any, n)
	runGroup(NewWorld(n), g, func(c *Comm, rank int) {
		for _, dst := range g.Ranks() {
			c.Send(dst, 300, rank)
		}
		results[rank] = gather(c, g, 300)
	})
	for r, res := range results {
		for i, v := range res {
			if v != i {
				t.Errorf("rank %d slot %d = %v", r, i, v)
			}
		}
	}
}

// TestAllToAll: the personalized exchange a redistribution performs. Rank
// i sends i*10+j to rank j, and rank j must receive exactly that from i.
func TestAllToAll(t *testing.T) {
	const n = 4
	g := Group{First: 0, N: n}
	results := make([][]any, n)
	runGroup(NewWorld(n), g, func(c *Comm, rank int) {
		for _, dst := range g.Ranks() {
			c.Send(dst, 400, rank*10+dst)
		}
		results[rank] = gather(c, g, 400)
	})
	for j, res := range results {
		for i, v := range res {
			if v != i*10+j {
				t.Errorf("rank %d from %d: %v, want %d", j, i, v, i*10+j)
			}
		}
	}
}

// TestReduce: a root folds every member's partial in rank order, so the
// result is the sequential fold bit for bit whatever order the partials
// arrived in.
func TestReduce(t *testing.T) {
	const n = 8
	g := Group{First: 0, N: n}
	parts := make([]float64, n)
	for r := range parts {
		parts[r] = 1 / float64(r+3)
	}
	var want float64
	for _, p := range parts {
		want += p
	}
	var sum float64
	runGroup(NewWorld(n), g, func(c *Comm, rank int) {
		c.Send(0, 500, parts[rank])
		if rank == 0 {
			for _, v := range gather(c, g, 500) {
				sum += v.(float64)
			}
		}
	})
	if sum != want {
		t.Errorf("sum %v, want %v", sum, want)
	}
}

// TestCollectiveSubGroup: an exchange over a strict subset of the world
// leaves every other rank's mailbox alone.
func TestCollectiveSubGroup(t *testing.T) {
	w := NewWorld(6)
	g := Group{First: 2, N: 3} // ranks 2,3,4
	var got []any
	runGroup(w, g, func(c *Comm, rank int) {
		c.Send(2, 600, rank)
		if rank == 2 {
			got = gather(c, g, 600)
		}
	})
	if len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Errorf("subgroup gather %v", got)
	}
	for r, d := range w.QueueDepths() {
		if d != 0 {
			t.Errorf("rank %d holds %d messages", r, d)
		}
	}
}

// TestCollectivePanicsOutsideGroup: a receive on a rank that a partial
// world does not host is a wiring error and panics.
func TestCollectivePanicsOutsideGroup(t *testing.T) {
	w := NewPartialWorld(4, Group{First: 0, N: 2}, stubTransport{})
	defer func() {
		if recover() == nil {
			t.Error("Recv on a rank outside the hosted group should panic")
		}
	}()
	w.Comm(3).Recv(0, 1)
}
