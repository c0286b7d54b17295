package mp

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestSendHookReplaceAndDrop exercises the fault-injection send plane:
// the hook sees every message and can corrupt the payload or discard the
// message before delivery.
func TestSendHookReplaceAndDrop(t *testing.T) {
	w := NewWorld(2)
	var sent atomic.Int64
	w.SetObserver(func(int64) { sent.Add(1) })
	w.SetSendHook(func(src, dst, tag int, data any) (any, bool) {
		switch tag {
		case 1: // corrupt: payload replaced with nil
			return nil, false
		case 2: // drop the message entirely
			return data, true
		}
		return data, false
	})
	tx, rx := w.Comm(0), w.Comm(1)

	tx.Send(1, 0, "intact")
	if got := rx.Recv(0, 0); got != "intact" {
		t.Errorf("untouched message = %v", got)
	}
	tx.Send(1, 1, "corrupt me")
	if got := rx.Recv(0, 1); got != nil {
		t.Errorf("corrupted payload = %v, want nil", got)
	}
	tx.Send(1, 2, "drop me")
	if d := w.QueueDepths()[1]; d != 0 {
		t.Errorf("dropped message was delivered: rank 1 holds %d", d)
	}
	if sent.Load() != 2 {
		t.Error("dropped message was counted as sent")
	}
}

// TestWaitObserver checks the queue-wait accounting hook: a Recv that
// blocks reports roughly the blocked time, a Recv satisfied from the
// queue reports nothing.
func TestWaitObserver(t *testing.T) {
	w := NewWorld(2)
	var waits atomic.Int64
	var calls atomic.Int64
	w.SetWaitObserver(func(rank int, ns int64) {
		if rank != 1 {
			t.Errorf("wait observer rank %d, want 1", rank)
		}
		calls.Add(1)
		waits.Add(ns)
	})

	// Message already queued: no wait is reported.
	w.Comm(0).Send(1, 0, "ready")
	if got := w.Comm(1).Recv(0, 0); got != "ready" {
		t.Fatalf("Recv = %v", got)
	}
	if calls.Load() != 0 {
		t.Errorf("queued receive reported a wait")
	}

	// Receiver blocks first: the observed wait must cover the send delay.
	done := make(chan any)
	go func() { done <- w.Comm(1).Recv(0, 1) }()
	time.Sleep(30 * time.Millisecond)
	w.Comm(0).Send(1, 1, "late")
	if got := <-done; got != "late" {
		t.Fatalf("Recv = %v", got)
	}
	if calls.Load() != 1 {
		t.Fatalf("blocked receive reported %d waits, want 1", calls.Load())
	}
	if got := time.Duration(waits.Load()); got < 15*time.Millisecond {
		t.Errorf("observed wait %v, want >= 15ms", got)
	}
}
