package rpc

import (
	"errors"
	"testing"
	"time"

	"prdma/internal/sim"
)

// TestReestablishCrashedReplaysNothing crashes the server again while a
// durable connection is being re-established: Reestablish must return
// ErrCrashed and replay nothing, so the down server executes nothing, and
// the next Reestablish after the restart replays the backlog.
func TestReestablishCrashedReplaysNothing(t *testing.T) {
	const objSize = 256
	b := newBench(t, objSize, func(c *Config) {
		c.Workers = 1
		c.ProcessingTime = 50 * time.Microsecond
	}, nil)
	rec := b.client(WFlushRPC).(Recoverable)
	crash := func() { b.srv.Crash(); b.s.Crash() }
	b.run(t, func(p *sim.Proc) {
		// Durable writes ack at persistence, long before the slow server
		// applies them, so the crash leaves a backlog in the log.
		for i := 0; i < 8; i++ {
			req := &Request{Op: OpWrite, Key: uint64(i), Size: objSize, Payload: make([]byte, objSize)}
			if _, err := rec.CallTimeout(p, req, time.Millisecond); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		crash()
		p.Sleep(time.Millisecond)
		b.srv.Restart()

		handled := b.s.Handled
		b.k.AfterFunc(0, crash) // lands in the recovery scan
		if n, err := rec.Reestablish(p); !errors.Is(err, ErrCrashed) || n != 0 {
			t.Fatalf("interrupted Reestablish = %d, %v; want 0, ErrCrashed", n, err)
		}
		p.Sleep(time.Millisecond)
		if got := b.s.Handled - handled; got != 0 || b.s.QueueDepth() != 0 {
			t.Fatalf("down server handled %d requests, %d queued", got, b.s.QueueDepth())
		}

		b.srv.Restart()
		n, err := rec.Reestablish(p)
		if err != nil || n == 0 {
			t.Fatalf("Reestablish after restart = %d, %v; want a replayed backlog", n, err)
		}
		p.Sleep(time.Millisecond)
		if got := b.s.Handled - handled; got != int64(n) {
			t.Fatalf("server handled %d requests after replaying %d", got, n)
		}
	})
}
