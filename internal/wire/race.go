//go:build race

package wire

import "sync/atomic"

// ioSync gives the race detector the order a stream itself gives: a
// frame's bytes are read after they were written. syscall.Read and Write
// carry that edge already, but writev (a gathered frame's net.Buffers on
// a TCP connection) does not. Without it, a gathered frame's writer and
// its reader in one process look unordered to the detector, and so does
// everything either side does around them.
var ioSync atomic.Int64

func raceReleaseIO() { ioSync.Add(1) }
func raceAcquireIO() { ioSync.Load() }
