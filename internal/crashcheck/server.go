package crashcheck

import (
	"fmt"
	"time"

	"prdma/internal/host"
	"prdma/internal/redolog"
	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// server is the crash harness the single-server targets (Config and
// PMPoolConfig) share: one server host that crashes and restarts as in the
// §5.4 failure experiment (internal/failure), a monitor proc that
// re-establishes the client connections after each restart, torn-window
// crash placement, and the redo-log recovery check (invariants 2–4).
type server struct {
	k *sim.Kernel
	h *host.Host
	// fail crashes the server host and its RPC engine.
	fail func()
	// restart is the server restart latency; retransfer the client's call
	// timeout / retry interval.
	restart, retransfer time.Duration

	up           bool
	generation   int
	reestGen     int
	reconnecting bool
	replayed     int

	// recoverViolations collects invariant 2/3/4 breaks observed by the
	// redo logs' OnRecover hooks.
	recoverViolations []string
}

// monitor starts the proc that owns re-establishment, so replay is enqueued
// before any worker's retried or new requests: after each restart it runs
// reestablish, which recovers and replays and reports the replay count.
// Start it after the workers. The reference run has none: its poll loop
// would keep the event queue alive forever.
func (s *server) monitor(reestablish func(p *sim.Proc) (int, error)) {
	s.k.Go("crashcheck-monitor", func(p *sim.Proc) {
		for {
			p.Sleep(20 * time.Microsecond)
			if s.up && s.reestGen != s.generation {
				s.reconnecting = true
				replayed, err := reestablish(p)
				if err != nil {
					panic(err) // serial harness: reestablish cannot refuse
				}
				s.replayed += replayed
				s.reestGen = s.generation
				s.reconnecting = false
			}
		}
	})
}

// waitReady parks a worker while the server is down or reconnecting.
func (s *server) waitReady(p *sim.Proc) {
	for !s.up || s.reconnecting || s.reestGen != s.generation {
		p.Sleep(s.retransfer / 4)
	}
}

// crash fails the server and schedules its restart. Safe to call while
// already down (no-op).
func (s *server) crash() {
	if !s.up {
		return
	}
	s.up = false
	s.fail()
	s.k.AfterFunc(s.restart, func() {
		s.h.Restart()
		s.up = true
		s.generation++
	})
}

// crashAt runs the workload to pt, crashes the server there — inside an
// in-flight persist at torn points — arms the second crash, and lets the
// system settle for the given time past the crash. Returns the crash time.
func (s *server) crashAt(pt Point, settle time.Duration) sim.Time {
	s.k.RunEvents(pt.Event)
	if pt.TornFrac > 0 {
		// Aim inside an in-flight persist: advance the clock (executing
		// any earlier events) to the chosen fraction of its window.
		if ws := s.h.PM.InflightTornWindows(s.k.Now()); len(ws) > 0 {
			w := ws[int(pt.Event)%len(ws)]
			start := w.Start
			if now := s.k.Now(); start < now {
				start = now
			}
			t := start.Add(time.Duration(pt.TornFrac * float64(w.End.Sub(start))))
			if t > s.k.Now() {
				s.k.RunUntil(t)
			}
		}
	}
	at := s.k.Now()
	s.crash()
	if pt.SecondCrash {
		// Land a second crash shortly after the restart, while the
		// recovery scan and replay are typically still in flight.
		delta := time.Duration(pt.Event%40) * time.Microsecond
		s.k.AfterFunc(s.restart+delta, s.crash)
	}
	// The monitor proc polls forever, so the event queue never drains;
	// bound the settle phase by time instead.
	s.k.RunUntil(at.Add(settle))
	return at
}

// watch installs the recovery check on lg: sequence order at or above the
// durable floor, decodable frames, untorn write payloads of the expected
// size (size bytes, or each write's own declared Size when size is 0), and
// clean post-recovery accounting.
func (s *server) watch(lg *redolog.Log, size int) {
	lg.OnRecover = func(info redolog.RecoverInfo) {
		bad := func(format string, a ...any) {
			s.recoverViolations = append(s.recoverViolations, fmt.Sprintf(format, a...))
		}
		prev := uint64(0)
		for i, e := range info.Entries {
			if e.Seq < info.Floor {
				bad("recovered seq %d below durable floor %d", e.Seq, info.Floor)
			}
			if i > 0 && e.Seq <= prev {
				bad("recovered seqs not strictly increasing: %d after %d", e.Seq, prev)
			}
			prev = e.Seq
			_, req, err := rpc.DecodeLoggedRequest(e)
			if err != nil {
				bad("recovered entry is not a consistent frame: %v", err)
				continue
			}
			checkLoggedReq(bad, e.Seq, req, size)
		}
		if err := lg.CheckAccounting(); err != nil {
			bad("post-recover accounting: %v", err)
		}
	}
}

// checkLoggedReq verifies a recovered request (or each constituent of a
// recovered batch frame) carries an untorn payload from the workload.
func checkLoggedReq(bad func(string, ...any), seq uint64, req *rpc.Request, size int) {
	if subs, ok := rpc.BatchContents(req); ok {
		for _, s := range subs {
			checkLoggedReq(bad, seq, s, size)
		}
		return
	}
	if req.Op != rpc.OpWrite {
		return
	}
	want := size
	if want == 0 {
		want = req.Size
	}
	if len(req.Payload) != want {
		bad("recovered write seq %d: payload %d bytes, want %d", seq, len(req.Payload), want)
		return
	}
	if _, err := checkFill(req.Payload, req.Key); err != nil {
		bad("recovered write seq %d: %v", seq, err)
	}
}

// verify starts the end-state verdict: the recovery-check breaks, then
// the server's liveness.
func (s *server) verify() []string {
	out := append([]string(nil), s.recoverViolations...)
	if !s.up {
		out = append(out, "server still down after settle horizon")
	}
	return out
}

func (s *server) tally(res *Result) { res.Replayed += int64(s.replayed) }

func (s *server) shutdown() { s.k.Shutdown() }
