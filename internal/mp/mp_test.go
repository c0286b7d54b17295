package mp

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pstap/internal/cube"
)

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	go w.Comm(0).Send(1, 7, "hello")
	got := w.Comm(1).Recv(0, 7)
	if got != "hello" {
		t.Fatalf("got %v", got)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	w := NewWorld(2)
	done := make(chan any)
	go func() { done <- w.Comm(1).Recv(0, 1) }()
	select {
	case <-done:
		t.Fatal("recv returned before send")
	case <-time.After(10 * time.Millisecond):
	}
	w.Comm(0).Send(1, 1, 42)
	if got := <-done; got != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestTagMatching(t *testing.T) {
	w := NewWorld(2)
	c0, c1 := w.Comm(0), w.Comm(1)
	c0.Send(1, 5, "five")
	c0.Send(1, 3, "three")
	if got := c1.Recv(0, 3); got != "three" {
		t.Fatalf("tag 3 got %v", got)
	}
	if got := c1.Recv(0, 5); got != "five" {
		t.Fatalf("tag 5 got %v", got)
	}
}

func TestFIFOPerTag(t *testing.T) {
	w := NewWorld(2)
	c0, c1 := w.Comm(0), w.Comm(1)
	for i := 0; i < 10; i++ {
		c0.Send(1, 1, i)
	}
	for i := 0; i < 10; i++ {
		if got := c1.Recv(0, 1); got != i {
			t.Fatalf("message %d got %v", i, got)
		}
	}
}

func TestAnySource(t *testing.T) {
	w := NewWorld(3)
	w.Comm(0).Send(2, 1, "from0")
	w.Comm(1).Send(2, 1, "from1")
	got := map[any]bool{}
	got[w.Comm(2).Recv(AnySource, 1)] = true
	got[w.Comm(2).Recv(AnySource, 1)] = true
	if !got["from0"] || !got["from1"] {
		t.Fatalf("got %v", got)
	}
}

func TestSourceFiltering(t *testing.T) {
	w := NewWorld(3)
	w.Comm(0).Send(2, 1, "zero")
	w.Comm(1).Send(2, 1, "one")
	if got := w.Comm(2).Recv(1, 1); got != "one" {
		t.Fatalf("got %v", got)
	}
	if got := w.Comm(2).Recv(0, 1); got != "zero" {
		t.Fatalf("got %v", got)
	}
}

func TestTryRecv(t *testing.T) {
	w := NewWorld(2)
	if _, ok := w.Comm(1).TryRecv(0, 1); ok {
		t.Fatal("TryRecv on empty mailbox")
	}
	w.Comm(0).Send(1, 1, "x")
	got, ok := w.Comm(1).TryRecv(0, 1)
	if !ok || got != "x" {
		t.Fatalf("got %v %v", got, ok)
	}
}

func TestByteAccounting(t *testing.T) {
	w := NewWorld(2)
	c := cube.New(cube.Order{cube.Range, cube.Channel, cube.Pulse}, 2, 2, 2)
	w.Comm(0).Send(1, 1, c)
	w.Comm(0).Send(1, 2, "untracked")
	if w.BytesSent() != c.Bytes() {
		t.Errorf("bytes %d, want %d", w.BytesSent(), c.Bytes())
	}
	if w.MessagesSent() != 2 {
		t.Errorf("messages %d, want 2", w.MessagesSent())
	}
}

func TestSendObserver(t *testing.T) {
	w := NewWorld(2)
	var msgs, bytes atomic.Int64
	w.SetObserver(func(b int64) { msgs.Add(1); bytes.Add(b) })
	c := cube.New(cube.Order{cube.Range, cube.Channel, cube.Pulse}, 2, 2, 2)
	w.Comm(0).Send(1, 1, c)
	w.Comm(0).Send(1, 2, "untracked")
	if msgs.Load() != 2 {
		t.Errorf("observed messages %d, want 2", msgs.Load())
	}
	if bytes.Load() != c.Bytes() {
		t.Errorf("observed bytes %d, want %d", bytes.Load(), c.Bytes())
	}
	// Dropped sends on an aborted world are not observed.
	w.Abort()
	w.Comm(0).Send(1, 3, c)
	if msgs.Load() != 2 {
		t.Errorf("aborted send observed: %d", msgs.Load())
	}
}

func TestBarrier(t *testing.T) {
	const n = 8
	w := NewWorld(n)
	var mu sync.Mutex
	phase := make([]int, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for p := 0; p < 5; p++ {
				mu.Lock()
				phase[r] = p
				// nobody may be more than one phase ahead/behind across a
				// barrier boundary
				for _, q := range phase {
					if q < p-1 || q > p+1 {
						t.Errorf("phase skew: %v", phase)
					}
				}
				mu.Unlock()
				w.Barrier()
			}
		}(r)
	}
	wg.Wait()
}

func TestManyRanksStress(t *testing.T) {
	const n = 16
	w := NewWorld(n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Comm(r)
			// all-to-all: everyone sends its rank to everyone
			for d := 0; d < n; d++ {
				c.Send(d, 100, r)
			}
			sum := 0
			for s := 0; s < n; s++ {
				sum += c.Recv(s, 100).(int)
			}
			if sum != n*(n-1)/2 {
				t.Errorf("rank %d sum %d", r, sum)
			}
		}(r)
	}
	wg.Wait()
}

func TestGroupsAndLayout(t *testing.T) {
	groups := Layout([]int{4, 2, 3})
	if len(groups) != 3 {
		t.Fatal("groups")
	}
	if groups[0] != (Group{0, 4}) || groups[1] != (Group{4, 2}) || groups[2] != (Group{6, 3}) {
		t.Fatalf("layout %v", groups)
	}
	g := groups[1]
	if !g.Contains(5) || g.Contains(6) || g.Contains(3) {
		t.Error("contains")
	}
	if g.Local(5) != 1 || g.Global(1) != 5 {
		t.Error("local/global")
	}
	if r := g.Ranks(); len(r) != 2 || r[0] != 4 || r[1] != 5 {
		t.Errorf("ranks %v", r)
	}
}

func TestLayoutPanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero task size should panic")
		}
	}()
	Layout([]int{4, 0})
}

func TestWorldPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewWorld(0) should panic")
			}
		}()
		NewWorld(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad rank should panic")
			}
		}()
		NewWorld(2).Comm(5)
	}()
}

func BenchmarkSendRecv(b *testing.B) {
	w := NewWorld(2)
	c0, c1 := w.Comm(0), w.Comm(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c0.Send(1, i, i)
		c1.Recv(0, i)
	}
}

func TestAbortUnblocksRecv(t *testing.T) {
	w := NewWorld(3)
	var wg sync.WaitGroup
	aborted := make([]bool, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			aborted[i] = Protect(func() {
				w.Comm(i).Recv(2, 7) // never sent
			})
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	w.Abort()
	wg.Wait()
	for i, a := range aborted {
		if !a {
			t.Errorf("rank %d: Recv returned without abort", i)
		}
	}
	if !w.Aborted() {
		t.Error("Aborted() = false after Abort")
	}
	// Post-abort operations: Send is dropped, Recv panics immediately.
	w.Comm(2).Send(0, 1, "late")
	if !Protect(func() { w.Comm(0).Recv(2, 1) }) {
		t.Error("Recv on aborted world should panic ErrAborted")
	}
}

func TestAbortUnblocksBarrier(t *testing.T) {
	w := NewWorld(2)
	done := make(chan bool, 1)
	go func() { done <- Protect(func() { w.Barrier() }) }()
	time.Sleep(10 * time.Millisecond)
	w.Abort()
	if !<-done {
		t.Error("Barrier on aborted world should panic ErrAborted")
	}
}
