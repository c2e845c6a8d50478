package rpc

import (
	"errors"
	"time"

	"prdma/internal/sim"
)

// ErrTimeout is returned by CallTimeout when the server did not respond in
// time — in the failure experiments this means the server crashed.
var ErrTimeout = errors.New("rpc: call timed out")

// ErrCrossPartition is returned when an operation cannot run on a
// cross-partition (engine-mode) connection: batching (the batch stash is
// shared client/server state), and reestablishment outside a serialized
// engine span. Callers fall back — unbatched calls, or sim.Engine.Serialize
// around the recovery span — instead of crashing the run.
var ErrCrossPartition = errors.New("rpc: not supported on a cross-partition connection")

// ErrCrashed is returned by Reestablish when the server crashed again while
// its connection was being re-established: nothing was replayed, and the
// caller re-runs Reestablish after the restart.
var ErrCrashed = errors.New("rpc: server crashed during reestablish")

// Recoverable is the contract the failure-recovery experiments (§5.4,
// Fig. 12) drive: calls with timeouts, and connection re-establishment
// after a server restart. For durable RPCs, Reestablish also recovers the
// redo log and replays unprocessed-but-durable requests server-side —
// without any client re-transmission, the paper's headline recovery win.
type Recoverable interface {
	Client
	// CallTimeout is Call with a deadline (the RDMA re-transfer interval).
	CallTimeout(p *sim.Proc, req *Request, d time.Duration) (*Response, error)
	// Reestablish rebuilds the connection after the server restarts and
	// returns how many requests were replayed from the redo log. It returns
	// ErrCrashed if the server crashes again meanwhile, and on an
	// engine-mode connection ErrCrossPartition unless the engine is inside
	// a serialized span (recovery needs a global event order).
	Reestablish(p *sim.Proc) (int, error)
}

// CallTimeout implements Recoverable for the durable RPCs.
func (c *durableClient) CallTimeout(p *sim.Proc, req *Request, d time.Duration) (*Response, error) {
	issued := p.Now()
	_, durF, respF, err := c.issue(p, req)
	if err != nil {
		return nil, err
	}
	done := sim.NewFuture[sim.Time](p.K)
	respF.Then(func(rm respMsg) { done.Complete(rm.at) })

	if req.Op == OpWrite {
		dur, ok := durF.WaitTimeout(p, d)
		if !ok {
			return nil, ErrTimeout
		}
		return &Response{IssuedAt: issued, ReadyAt: dur, DurableAt: dur, Durable: durF, Done: done}, nil
	}
	rm, ok := respF.WaitTimeout(p, d)
	if !ok {
		return nil, ErrTimeout
	}
	return readResponse(issued, rm, durF, done), nil
}

// Reestablish rebuilds the durable connection: fresh QPs and rings, redo-log
// recovery from PM, and server-side replay of every recovered entry. If the
// server crashes again mid-recovery, it replays nothing and returns
// ErrCrashed; the caller re-runs it once the server is back.
func (c *durableClient) Reestablish(p *sim.Proc) (int, error) {
	if c.eng != nil && !c.eng.Serialized() {
		// Recovery walks server PM from the client proc and replays into a
		// rebuilt connection — inherently global-order work. The partitioned
		// failover controller serializes the engine around resync spans;
		// anything else must not attempt cross-partition recovery.
		return 0, ErrCrossPartition
	}
	epoch := c.srv.H.PM.Epoch()
	// Retire the old connection's receive loops: they end at their next
	// live check, or stay parked on the dead QPs.
	old := c.conn
	old.closed = true

	nc := newConn(c.kind, old.cli, old.srv, old.cfg, c.cq.Transport)
	nc.log = c.log
	c.conn = nc
	c.resQueue = nil
	c.wire()

	// Recover the log from PM and replay: the server re-executes durable
	// requests without the client re-sending data (§4.2).
	entries := c.log.Recover(p)
	if c.srv.H.PM.Epoch() != epoch {
		return 0, ErrCrashed
	}
	for _, e := range entries {
		seq, req := decodeReq(e.Payload)
		var respond func([]byte)
		if c.kind.SendBased() {
			respond = c.respondSend(seq, req)
		} else {
			respond = c.respondWrite(seq, req)
		}
		c.enqueueLogged(seq, req, respond)
	}
	return len(entries), nil
}

// CallTimeout implements Recoverable for the FaRM baseline.
func (c *farmClient) CallTimeout(p *sim.Proc, req *Request, d time.Duration) (*Response, error) {
	issued := p.Now()
	seq := c.nextSeq()
	f := c.await(seq)
	c.cli.Post(p)
	c.cq.WriteAsync(c.reqSlot(seq), reqWireBytes(req), encodeReq(seq, req))
	rm, ok := f.WaitTimeout(p, d)
	if !ok {
		delete(c.pending, seq)
		return nil, ErrTimeout
	}
	return traditionalResponse(issued, rm, p.K), nil
}

// Reestablish rebuilds the FaRM connection. Traditional RPCs have no log:
// nothing replays, and the client must re-send every incomplete request.
func (c *farmClient) Reestablish(p *sim.Proc) (int, error) {
	old := c.conn
	old.closed = true
	nc := newConn(FaRM, old.cli, old.srv, old.cfg, c.cq.Transport)
	c.conn = nc
	c.startWriteDrain()
	startRingPoller(c.conn)
	return 0, nil
}
