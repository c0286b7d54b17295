package dist

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"pstap/internal/cube"
	"pstap/internal/leakcheck"
	"pstap/internal/mp"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/wire"
)

// stuckMargin is how late past its due time a stuck peer's link may die,
// and a Close may return, on a loaded machine.
const stuckMargin = time.Second

// TestStuckPeerKillsLink: a peer that accepts a link and then neither
// reads nor writes is dead, whatever frames the link's senders are
// blocked behind — nil payloads, which fill the socket buffers a few
// bytes at a time, or Medium raw slabs, the second of which already
// blocks its sender inside the socket write.
//
//   - The heartbeat kills the link within heartbeatMisses intervals plus
//     stuckMargin, with a LinkError naming the silence, although a sender
//     is blocked in the socket write; the sender gets the error.
//   - With no heartbeat at all, Close returns within stuckMargin while a
//     sender is blocked in the socket write: its goodbye is best-effort.
func TestStuckPeerKillsLink(t *testing.T) {
	const hb = 20 * time.Millisecond
	for _, tc := range []struct {
		name    string
		payload any
	}{
		{"nil", nil},
		{"medium-raw-slab", mediumRawSlab(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)

			peer, conn := tcpPair(t)
			tr, w := stuckLink(t, hb, peer, conn)
			senders := sendLoop(tr, tc.payload)
			heartbeatKills(t, w, hb)
			var le *LinkError
			if err := senderError(t, senders); !errors.As(err, &le) {
				t.Errorf("sender returned %v, want a LinkError", err)
			}
			closeWithin(t, tr, stuckMargin)

			peer, conn = tcpPair(t)
			tr, _ = stuckLink(t, 0, peer, conn)
			senders = sendLoop(tr, tc.payload)
			// Wait until the sender is stuck: the link's byte count stops.
			for last, still := int64(-1), 0; still < 5; time.Sleep(20 * time.Millisecond) {
				if n := tr.Stats()[0].BytesSent; n != last {
					last, still = n, 0
				} else {
					still++
				}
			}
			closeWithin(t, tr, stuckMargin)
			if err := senderError(t, senders); err == nil {
				t.Error("sender returned no error from a closed transport")
			}
		})
	}
}

// TestStuckPeerKillsIdleLink: over an unbuffered pipe whose peer never
// reads, the heartbeat's own first ping blocks in its write. The write
// must fail at the silence limit and kill the link, not hold the silence
// check off for good.
func TestStuckPeerKillsIdleLink(t *testing.T) {
	leakcheck.Check(t)
	const hb = 20 * time.Millisecond
	peer, conn := net.Pipe()
	tr, w := stuckLink(t, hb, peer, conn)
	heartbeatKills(t, w, hb)
	closeWithin(t, tr, stuckMargin)
}

// stuckLink wires member 1 of a two-member session over conn to member
// 0's end, peer, which neither reads nor writes until the test ends, with
// heartbeat interval hb, and returns the transport and its world. At the
// end the peer hangs up before the transport closes, which frees a sender
// still stuck when the test fails.
func stuckLink(t *testing.T, hb time.Duration, peer, conn net.Conn) (*Transport, *mp.World) {
	tr := newTransport(1, 1, []int{0, 1}, hb, nil)
	tr.depth, tr.maxData = pipeline.RingDepth(0), wire.MaxFrameBytes
	w := mp.NewPartialWorld(2, mp.Group{First: 1, N: 1}, tr)
	tr.world = w
	t.Cleanup(func() { tr.Close("") })
	t.Cleanup(func() { peer.Close() })
	tr.runLink(0, "stuck peer", conn)
	return tr, w
}

// sendLoop sends payload to the peer's rank until a Send fails, and
// returns where that error arrives.
func sendLoop(tr *Transport, payload any) chan error {
	senders := make(chan error, 1)
	go func() {
		for {
			if err := tr.Send(1, 0, 0, payload); err != nil {
				senders <- err
				return
			}
		}
	}()
	return senders
}

// heartbeatKills fails the test unless w aborts with a LinkError from the
// heartbeat within heartbeatMisses intervals of hb plus stuckMargin.
func heartbeatKills(t *testing.T, w *mp.World, hb time.Duration) {
	t.Helper()
	select {
	case <-w.Done():
	case <-time.After(heartbeatMisses*hb + stuckMargin):
		t.Fatalf("link to a stuck peer alive %v after the peer went silent; heartbeat limit %v",
			heartbeatMisses*hb+stuckMargin, heartbeatMisses*hb)
	}
	var le *LinkError
	if err := w.AbortCause(); !errors.As(err, &le) || !strings.Contains(err.Error(), "heartbeat") {
		t.Fatalf("link died of %v, want a LinkError from the heartbeat", err)
	}
}

// senderError waits stuckMargin for the sender's error.
func senderError(t *testing.T, senders chan error) error {
	t.Helper()
	select {
	case err := <-senders:
		return err
	case <-time.After(stuckMargin):
		t.Fatal("sender still blocked on a dead link")
		return nil
	}
}

// closeWithin closes tr and fails the test unless Close returns within d.
func closeWithin(t *testing.T, tr *Transport, d time.Duration) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		tr.Close("")
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(d):
		t.Fatalf("Close blocked for %v behind a stuck writer", d)
	}
}

// mediumRawSlab is a raw message carrying a whole radar.Medium() CPI
// (2 MiB of samples).
func mediumRawSlab(t *testing.T) any {
	p := radar.Medium()
	m := cubeMessage(t, kindRaw, cube.New(cube.Order{cube.Range, cube.Channel, cube.Pulse}, p.K, p.J, p.N))
	var again wire.Enc
	if err := pipeline.AppendMessage(&again, m); err != nil || len(again.Bytes()) < 2<<20 {
		t.Fatalf("%T of %d bytes (%v), want a raw message of 2 MiB", m, len(again.Bytes()), err)
	}
	return m
}

// The kind bytes of the pipeline messages the tests build from their flat
// form: a raw slab and a beamforming data piece.
const (
	kindRaw     = 1
	kindBFPiece = 4
)

// cubeMessage is the pipeline message of the given kind carrying c, made
// by decoding its flat form: the kind byte, the cube, then the ctl's
// three flags, trace and hop.
func cubeMessage(tb testing.TB, kind byte, c *cube.Cube) any {
	var e wire.Enc
	e.Byte(kind)
	e.Cube(c)
	e.Bool(false)
	e.Bool(false)
	e.Bool(false)
	e.Uint64(0)
	e.Byte(0)
	m, err := pipeline.DecodeMessageInto(wire.NewDec(e.Bytes()), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}
