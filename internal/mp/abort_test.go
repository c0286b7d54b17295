package mp

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// unwound runs f and reports whether an ErrAborted panic cut it short, the
// way the pipeline's worker supervision treats one; any other panic
// propagates.
func unwound(f func()) (aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != ErrAborted {
				panic(r)
			}
			aborted = true
		}
	}()
	f()
	return false
}

// TestTryRecvAbort checks that a Recv entered after Abort unwinds with
// ErrAborted even when a matching message is already queued: an aborted
// world delivers nothing, so a receive loop cannot keep draining it.
func TestTryRecvAbort(t *testing.T) {
	w := NewWorld(2)
	w.Comm(0).Send(1, 7, "queued")
	w.Abort()

	aborted := unwound(func() {
		w.Comm(1).Recv(0, 7)
		t.Error("Recv returned on an aborted world")
	})
	if !aborted {
		t.Fatal("Recv did not unwind with ErrAborted")
	}
}

// TestTryRecvPolling is the live-world baseline for the abort test:
// queued messages come out in send order, and a Recv for a tag nobody
// sent stays parked instead of taking another tag's message.
func TestTryRecvPolling(t *testing.T) {
	w := NewWorld(2)
	rx := w.Comm(1)
	w.Comm(0).Send(1, 7, "a")
	w.Comm(0).Send(1, 7, "b")
	if d := rx.Recv(0, 7); d != "a" {
		t.Fatalf("first Recv = %v", d)
	}
	got := make(chan any, 1)
	go func() { got <- rx.Recv(0, 8) }()
	select {
	case d := <-got:
		t.Fatalf("Recv of tag 8 matched %v", d)
	case <-time.After(10 * time.Millisecond):
	}
	if d := rx.Recv(0, 7); d != "b" {
		t.Fatalf("second Recv = %v", d)
	}
	w.Comm(0).Send(1, 8, "c")
	if d := <-got; d != "c" {
		t.Fatalf("parked Recv = %v", d)
	}
}

// TestCollectivesAbort parks ranks in Recv in the wait shapes of MPI's
// collectives, built from Send/Recv the way the pipeline writes its
// exchanges, and then aborts the world: every participant must unwind
// with ErrAborted, and no goroutine may stay blocked.
func TestCollectivesAbort(t *testing.T) {
	const n = 4

	cases := []struct {
		name string
		body func(w *World, rank int)
	}{
		// Non-root ranks wait for a root that never sends.
		{"Bcast", func(w *World, rank int) {
			w.Comm(rank).Recv(0, 100)
		}},
		// The root waits on members that never send.
		{"Gather", func(w *World, rank int) {
			if rank == 0 {
				for src := 1; src < n; src++ {
					w.Comm(rank).Recv(src, 200)
				}
			} else {
				w.Comm(rank).Recv(n-1, 999)
			}
		}},
		// Everyone but the last rank sends to everyone and waits on
		// everyone; the last rank never joins.
		{"AllGather", func(w *World, rank int) {
			c := w.Comm(rank)
			if rank == n-1 {
				c.Recv(0, 999)
				return
			}
			for dst := 0; dst < n; dst++ {
				c.Send(dst, 300, rank)
			}
			for src := 0; src < n; src++ {
				c.Recv(src, 300)
			}
		}},
		// A personalized exchange with one absentee.
		{"AllToAll", func(w *World, rank int) {
			c := w.Comm(rank)
			if rank == n-1 {
				c.Recv(0, 999)
				return
			}
			for dst := 0; dst < n; dst++ {
				c.Send(dst, 400, rank*10+dst)
			}
			for src := 0; src < n; src++ {
				c.Recv(src, 400)
			}
		}},
		// The root folds partials from members that send some of them.
		{"Reduce", func(w *World, rank int) {
			c := w.Comm(rank)
			switch {
			case rank == 0:
				for src := 1; src < n; src++ {
					c.Recv(src, 500)
				}
			case rank == 1:
				c.Send(0, 500, 1.0)
				c.Recv(n-1, 999)
			default:
				c.Recv(n-1, 999)
			}
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(n)
			var wg sync.WaitGroup
			aborted := make([]bool, n)
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					aborted[rank] = unwound(func() { tc.body(w, rank) })
				}(r)
			}
			time.Sleep(10 * time.Millisecond) // let everyone park
			w.Abort()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("participants still blocked after Abort")
			}
			for rank, ok := range aborted {
				if !ok {
					t.Errorf("rank %d did not unwind with ErrAborted", rank)
				}
			}
		})
	}
}

// TestCollectiveAfterAbort checks the post-abort entry path: a Recv
// entered on an already-aborted world unwinds at once, without waiting
// for a message.
func TestCollectiveAfterAbort(t *testing.T) {
	w := NewWorld(2)
	w.Abort()
	done := make(chan bool, 1)
	go func() {
		done <- unwound(func() { w.Comm(1).Recv(0, 10) })
	}()
	select {
	case aborted := <-done:
		if !aborted {
			t.Fatal("Recv on aborted world completed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv on aborted world blocked")
	}
}

// TestAbortUnblocksBarrier aborts a partial world with a cause, the way a
// transport does when a link to a peer process dies: a Recv parked on a
// hosted rank unwinds with ErrAborted, the cause is recorded, and only
// the first cause wins.
func TestAbortUnblocksBarrier(t *testing.T) {
	w := NewPartialWorld(4, Group{First: 1, N: 2}, stubTransport{})
	done := make(chan bool, 1)
	go func() { done <- unwound(func() { w.Comm(2).Recv(0, 7) }) }()
	time.Sleep(10 * time.Millisecond)
	cause := errors.New("link to member 1 lost")
	w.AbortWith(cause)
	w.AbortWith(errors.New("a later cause"))
	select {
	case aborted := <-done:
		if !aborted {
			t.Error("parked Recv on an aborted world did not unwind with ErrAborted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked Recv still blocked after AbortWith")
	}
	if got := w.AbortCause(); got != cause {
		t.Errorf("AbortCause = %v, want %v", got, cause)
	}
}
