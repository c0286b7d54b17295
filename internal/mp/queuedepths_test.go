package mp

import "testing"

// stubTransport satisfies Transport for worlds whose cross-process
// traffic never actually flows in the test.
type stubTransport struct{}

func (stubTransport) Send(src, dst, tag int, data any) error { return nil }

func TestQueueDepths(t *testing.T) {
	w := NewWorld(3)
	c0 := w.Comm(0)
	c0.Send(1, 7, "a")
	c0.Send(1, 8, "b")
	c0.Send(2, 7, "c")
	if got := w.QueueDepths(); got[0] != 0 || got[1] != 2 || got[2] != 1 {
		t.Errorf("queue depths %v, want [0 2 1]", got)
	}
	w.Comm(1).Recv(0, 7)
	if got := w.QueueDepths(); got[1] != 1 {
		t.Errorf("after recv, rank 1 depth %d, want 1", got[1])
	}
}

func TestQueueDepthsPartialWorld(t *testing.T) {
	tr := &stubTransport{}
	w := NewPartialWorld(4, Group{First: 1, N: 2}, tr)
	w.Deliver(0, 1, 7, "x")
	got := w.QueueDepths()
	if got[0] != -1 || got[3] != -1 {
		t.Errorf("non-hosted ranks must report -1: %v", got)
	}
	if got[1] != 1 || got[2] != 0 {
		t.Errorf("hosted depths %v, want rank1=1 rank2=0", got)
	}
}
