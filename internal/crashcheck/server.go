package crashcheck

import (
	"fmt"
	"time"

	"prdma/internal/failure"
	"prdma/internal/host"
	"prdma/internal/redolog"
	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// The single-server targets' shared timing: the server restart latency
// after a crash, and the clients' call timeout and retry interval.
const (
	restart    = 2 * time.Millisecond
	retransfer = 500 * time.Microsecond
)

// server is what the single-server targets (Config and PMPoolConfig) add to
// failure.Server, the crash protocol Fig. 12's driver runs (§5.4): torn-window
// crash placement, the settle proc, and the redo-log recovery check
// (invariants 2–4).
type server struct {
	*failure.Server

	// recoverViolations collects invariant 2/3/4 breaks observed by the
	// redo logs' OnRecover hooks.
	recoverViolations []string
}

// newServer returns the crash protocol for h: fail crashes the host and
// its services, and reestablish re-establishes every client connection.
func newServer(k *sim.Kernel, h *host.Host, fail func(), reestablish func(p *sim.Proc) (int, error)) *server {
	return &server{Server: &failure.Server{
		K: k, Host: h, Fail: fail, Reestablish: reestablish,
		Restart: restart, Retransfer: retransfer,
	}}
}

// crashAt runs the workload to pt, crashes the server there — inside an
// in-flight persist at torn points — arms the second crash, and lets the
// system settle until the given time past the crash. Returns the crash
// time.
func (s *server) crashAt(pt Point, settle time.Duration) sim.Time {
	k := s.K
	k.RunEvents(pt.Event)
	if pt.TornFrac > 0 {
		// Aim inside an in-flight persist: advance the clock (executing
		// any earlier events) to the chosen fraction of its window.
		if ws := s.Host.PM.InflightTornWindows(k.Now()); len(ws) > 0 {
			w := ws[int(pt.Event)%len(ws)]
			start := w.Start
			if now := k.Now(); start < now {
				start = now
			}
			t := start.Add(time.Duration(pt.TornFrac * float64(w.End.Sub(start))))
			if t > k.Now() {
				k.RunUntil(t)
			}
		}
	}
	at := k.Now()
	s.Crash()
	if pt.SecondCrash {
		// Land a second crash shortly after recovery begins, while the
		// recovery scan and replay are still in flight.
		s.CrashInRecovery(time.Duration(pt.Event%20) * time.Microsecond)
	}
	// The settle proc re-establishes the server even when no worker calls
	// again (all done, or stranded on a dead batch).
	end := at.Add(settle)
	k.Go("crashcheck-settle", func(p *sim.Proc) {
		for p.Now() < end {
			s.Ready(p)
			p.Sleep(s.Retransfer)
		}
	})
	// Lease renewers and retransmit timers keep the event queue alive;
	// bound the settle phase by time.
	k.RunUntil(end)
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
	if !s.Up() {
		out = append(out, "server still down after settle horizon")
	}
	return out
}

func (s *server) tally(res *Result) { res.Replayed += int64(s.Replayed) }

func (s *server) shutdown() { s.K.Shutdown() }
