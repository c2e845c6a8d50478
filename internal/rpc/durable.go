package rpc

import (
	"fmt"
	"time"

	"prdma/internal/host"
	"prdma/internal/redolog"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// durableClient implements the paper's four durable RPCs (§4.2, Fig. 4).
// All of them decouple data persisting from RPC processing: every request is
// deposited durably in the connection's redo log, the sender learns of
// persistence via an RDMA Flush acknowledgement (or receiver notification),
// and the server processes logged requests asynchronously, consuming log
// entries as it completes them. After a crash, unprocessed-but-durable
// requests replay from the log without client re-transmission.
//
//	WFlush-RPC   : RDMA write of the log entry + WFlush   (sender-initiated)
//	SFlush-RPC   : RDMA send of the log entry  + SFlush   (sender-initiated)
//	W-RFlush-RPC : RDMA write + receiver-side RFlush notify (receiver-init.)
//	S-RFlush-RPC : RDMA send  + receiver-side RFlush notify (receiver-init.)
type durableClient struct {
	*conn
	// resQueue is the FIFO of reserved log addresses for native SFlush.
	resQueue []int64
}

// nativeSFlush reports whether this connection runs SFlush natively (NIC
// resolves log addresses) rather than via the read-after-write emulation.
func nativeSFlush(kind Kind, srv *Server) bool {
	return kind == SFlushRPC && !srv.H.NIC.Params.EmulateFlush
}

// NewDurable connects one of the durable RPC clients from cli to srv.
//
// When cli and srv live on different kernels of one sim.Engine the
// connection runs in engine mode, and the redo-log ownership splits the same
// way in every family: the entry bytes always land in the server's PM (the
// NIC persists them on arrival, exactly as in serial mode), while the
// accounting half — Reserve, Consume, the FIFO durable window — runs on the
// client's kernel. Every hop that would touch the other side's state crosses
// as a lookahead-delayed engine message. Per family:
//
//	WFlush-RPC   : control-word persists hop to the server partition and
//	               back (redolog.CtrlPersist); worker-side consume
//	               notifications hop back to the client (enqueueLogged).
//	SFlush-RPC   : the per-request receive buffer (emulated) or the
//	               reservation FIFO the server NIC pops (native) is
//	               server-kernel state, so its registration hops over; the
//	               hop lands a full lookahead before the send can arrive,
//	               because the send still has to traverse the client NIC's
//	               WQE pipeline (ProcPerWQE > 0) before reaching the wire.
//	W-RFlush-RPC : nothing extra — the RFlush notification is a plain wire
//	               message, its expectation table is client-local, and the
//	               server-side clflush touches only server state.
//	S-RFlush-RPC : the receive-buffer registration hops like SFlush.
//
// Reestablish works cross-partition only inside a serialized engine span
// (sim.Engine.Serialize gives recovery the global event order it needs);
// CallBatch returns ErrCrossPartition — the batch stash is shared
// client/server state no hop discipline covers.
func NewDurable(kind Kind, cli *host.Host, srv *Server, cfg Config) Client {
	if !kind.Durable() {
		panic(fmt.Sprintf("rpc: %v is not a durable kind", kind))
	}
	c := &durableClient{conn: newConn(kind, cli, srv, cfg, rnic.RC)}
	c.newLog()
	c.wire()
	return c
}

// wire starts the connection's receive loops and receive-buffer plumbing;
// it runs both at construction and after Reestablish.
func (c *durableClient) wire() {
	switch c.kind {
	case WFlushRPC, WRFlushRPC:
		// Responses come back as writes into the client ring.
		c.startWriteDrain()
		c.startLogPoller()
	case SFlushRPC, SRFlushRPC:
		c.postClientRecvs()
		c.startRecvDrain(true)
		if nativeSFlush(c.kind, c.srv) {
			// Native SFlush: the server NIC resolves log addresses
			// autonomously. Reservations queue in FIFO order — RC
			// delivery matches sends to reservations exactly. The
			// message buffer is an ordinary DRAM recv ring.
			c.sq.FlushSink = c.popReservation
			for i := 0; i < c.cfg.RingSlots; i++ {
				c.sq.PostRecv(c.reqSlot(uint64(i)), c.cfg.SlotSize)
			}
		}
		c.cq.FlushProbe = c.log.Base()
		c.startLogRecv()
	}
}

// popReservation hands the server NIC the log address the sender reserved
// for the next in-flight send (native SFlush); RC's in-order delivery makes
// the FIFO matching exact.
func (c *durableClient) popReservation(n int) int64 {
	if len(c.resQueue) == 0 {
		panic("rpc: SFlush arrived with no reservation")
	}
	a := c.resQueue[0]
	c.resQueue = c.resQueue[1:]
	return a
}

// startLogPoller is the server loop for the write-based durable RPCs: it
// polls the log region for arrivals. For WFlush the NIC already
// acknowledged durability to the sender; for W-RFlush the CPU sends the
// RFlush notification here — before processing, which is the whole point.
func (c *durableClient) startLogPoller() {
	kind := c.kind
	// Bind to this connection incarnation: Reestablish replaces c.conn, so
	// reading c.closed through the embedded pointer would keep a replaced
	// incarnation's poller alive — and a late RC retransmit landing on its
	// still-registered QP would be fed into the shared redo log.
	cn := c.conn
	sq := c.sq
	l := newRecvLoop(c.srv.H, sq.Arrivals, func() bool { return !cn.closed && !sq.Dead() })
	// An entry waits in e while its clflush persists.
	var e struct {
		seq uint64
		req *Request
	}
	flushed := func() {
		sq.Notify(e.seq)
		c.enqueueLogged(e.seq, e.req, c.respondWrite(e.seq, e.req))
		e.req = nil
		l.next()
	}
	l.start(func(arr rnic.Arrival) bool {
		if cn.closed || sq.Dead() {
			return false // crashed or replaced while polling
		}
		seq, req := c.decodeEntry(arr.Data)
		if kind == WRFlushRPC && mutatingOp(req.Op) {
			// RFlush: with DDIO the write landed in the volatile
			// LLC; the CPU must clflush it to the persist domain
			// before acknowledging (§4.4.2). Without DDIO the log
			// is a PM region the NIC persisted into already.
			if arr.Durable == 0 {
				e.seq, e.req = seq, req
				c.srv.H.LLC.ClflushFunc(arr.Addr, arr.N, flushed)
				return false
			}
			sq.Notify(seq)
		}
		c.enqueueLogged(seq, req, c.respondWrite(seq, req))
		return true
	})
}

// startLogRecv is the server loop for the send-based durable RPCs.
func (c *durableClient) startLogRecv() {
	kind := c.kind
	cn := c.conn // bind to this connection incarnation (see startLogPoller)
	sq := c.sq
	repost := nativeSFlush(kind, c.srv)
	l := newRecvLoop(c.srv.H, sq.RecvCQ, func() bool { return !cn.closed && !sq.Dead() })
	l.start(func(rcv rnic.Recv) bool {
		if cn.closed || sq.Dead() {
			return false // crashed or replaced while polling
		}
		if repost {
			sq.PostRecv(rcv.Addr, c.cfg.SlotSize)
		}
		seq, req := c.decodeEntry(rcv.Data)
		if kind == SRFlushRPC && mutatingOp(req.Op) {
			// RFlush: the receive buffers are log-resident PM; the
			// payload is durable on arrival. Notify, then process.
			sq.Notify(seq)
		}
		c.enqueueLogged(seq, req, c.respondSend(seq, req))
		return true
	})
}

// enqueueLogged dispatches a logged request to the worker pool; completing a
// mutating request consumes its log entry. Non-mutating requests hold a
// sequence number but no log entry (see Log.NextSeq), so there is nothing to
// consume.
func (c *durableClient) enqueueLogged(seq uint64, req *Request, respond func([]byte)) {
	var reqs []*Request
	if isBatchOp(req.Op) {
		reqs = c.batchReqs(seq, req)
	}
	var consume func(at sim.Time)
	if mutatingOp(req.Op) {
		if c.eng != nil {
			// Engine mode: the log lives on the client's kernel, so the
			// worker's completion crosses back as a lookahead-delayed
			// message. The entry stays in the durable window one hop
			// longer than strictly needed — reclamation lag, not a
			// correctness concern.
			srvK, cliK := c.srv.H.K, c.cli.K
			consume = func(at sim.Time) {
				c.eng.PostAfterLookahead(srvK, cliK, func() {
					c.log.Consume(cliK.Now(), seq)
				})
			}
		} else {
			consume = func(at sim.Time) { c.log.Consume(at, seq) }
		}
	}
	c.srv.enqueue(workItem{req: req, reqs: reqs, respond: respond, consume: consume})
}

// mutatingOp reports whether op needs a durability acknowledgement. A
// read-only batch (opBatchRO) deliberately does not: it rides the same FIFO
// channel but skips the flush machinery (§5.5). OpCtrl records mutate
// service state, so they log and flush like writes — but their caller waits
// for the processing response (which carries the result), not the flush.
func mutatingOp(op Op) bool { return op == OpWrite || op == OpCtrl || op == opBatch }

// decodeEntry parses a redo-log entry image back into (seq, request).
func (c *durableClient) decodeEntry(b []byte) (uint64, *Request) {
	if len(b) < redolog.HeaderBytes+reqHeaderBytes {
		panic("rpc: truncated log entry image")
	}
	seq, req := decodeReq(b[redolog.HeaderBytes:])
	return seq, req
}

// admit performs §4.2 back-pressure (throttle on outstanding, retry on a
// full ring) and allocates the request's sequence number — with a log slot
// for mutating requests, without one otherwise (a reserved-but-never-written
// slot would read as garbage to the recovery scan and truncate replay). It
// aborts with ErrTimeout if the connection is replaced (crash recovery)
// while the caller waits — a waiter must not touch a log that is being
// recovered; it re-runs its reconnection protocol instead.
func (c *durableClient) admit(p *sim.Proc, n int, mutating bool) (uint64, int64, error) {
	myConn := c.conn
	// stale reports conditions under which waiting is pointless: the
	// connection was replaced under us, or the server crashed (outstanding
	// entries will only drain after recovery, which the caller initiates).
	stale := func() bool { return c.conn != myConn || myConn.sq.Dead() }
	for c.log.Outstanding() >= c.cfg.ThrottleOutstanding {
		p.Sleep(2 * time.Microsecond)
		if stale() {
			return 0, 0, ErrTimeout
		}
	}
	if !mutating {
		return c.log.NextSeq(), -1, nil
	}
	seq, addr, err := c.log.Reserve(n)
	for err != nil {
		// Ring full: §4.2 back-pressure — throttle and retry.
		p.Sleep(5 * time.Microsecond)
		if stale() {
			return 0, 0, ErrTimeout
		}
		seq, addr, err = c.log.Reserve(n)
	}
	return seq, addr, nil
}

// encodeEntry builds the redo-log entry image for req in a pooled
// per-connection buffer (released when seq's response completes): the full
// entry (header, request, zeroed padding, commit word), or the short
// header-only prefix for synthetic payloads, which never recovers.
func (c *durableClient) encodeEntry(seq uint64, req *Request, n int) []byte {
	op := byte(req.Op)
	reqLen := reqImageBytes(req)
	if reqLen < n {
		// Synthetic short image: header run only, never recoverable.
		b := c.getImage(seq, redolog.HeaderBytes+reqLen)
		redolog.PutHeader(b, seq, op, n)
		encodeReqInto(b[redolog.HeaderBytes:], seq, req)
		return b
	}
	foot := int(redolog.EntrySize(n))
	b := c.getImage(seq, foot)
	redolog.PutHeader(b, seq, op, n)
	encodeReqInto(b[redolog.HeaderBytes:redolog.HeaderBytes+reqLen], seq, req)
	for i := redolog.HeaderBytes + n; i < foot-redolog.CommitBytes; i++ {
		b[i] = 0 // pad bytes: a reused buffer must equal a fresh image
	}
	redolog.PutCommit(b[foot-redolog.CommitBytes:], seq, op, n)
	return b
}

// dispatch transmits a prepared log-entry image per the client's family and
// returns the durability future. Flush machinery is engaged only when the
// request mutates state: "RDMA Flush primitives are only needed for a small
// portion of RDMA write operations" (§5.5) — read requests travel over the
// same logged channel (FIFO ordering) but complete on their response, so
// their durability future is just the transport acknowledgement.
//
// dispatch must not yield: ring order (assigned by Reserve) has to equal
// wire-posting order. Callers pay the WQE-posting CPU cost before admit —
// a sleep between Reserve and the NIC post would let a concurrent caller
// invert the two orders, and the durable families depend on them agreeing:
// the send-based kinds match pre-posted log-slot receive buffers to sends
// in FIFO order, and the flush-ack horizon only covers entries that arrived
// earlier. An entry landing in another request's slot — or acknowledged
// ahead of a predecessor that is still in flight — loses acknowledged
// writes when a crash hits (the crash-point sweep catches both).
func (c *durableClient) dispatch(p *sim.Proc, seq uint64, addr int64, entryBytes int, image []byte, mutating bool) *sim.Future[sim.Time] {
	// Non-mutating requests ride the DRAM message ring instead of the PM
	// log: they keep FIFO order (same QP) but skip the persist machinery
	// entirely. They carry a sequence number but own no log bytes — a read
	// lost in a crash needs no recovery.
	if !mutating {
		switch c.kind {
		case WFlushRPC, WRFlushRPC:
			return c.cq.WriteAsync(c.reqSlot(seq), entryBytes, image)
		default: // SFlushRPC, SRFlushRPC
			if !nativeSFlush(c.kind, c.srv) {
				// Native mode keeps a pre-posted recv ring; the
				// emulated modes post buffers per request.
				c.postRecvServer(c.reqSlot(seq), entryBytes)
			}
			return c.cq.SendAsync(entryBytes, image)
		}
	}
	switch c.kind {
	case WFlushRPC:
		return c.cq.WriteFlushAsync(addr, entryBytes, image)
	case WRFlushRPC:
		durF := c.cq.ExpectNotify(seq)
		c.cq.WriteAsync(addr, entryBytes, image)
		return durF
	case SFlushRPC:
		if nativeSFlush(c.kind, c.srv) {
			// The reservation FIFO is consumed by the server NIC
			// (popReservation), so in engine mode it is server-kernel
			// state and the append crosses partitions.
			if c.eng != nil {
				c.eng.PostAfterLookahead(c.cli.K, c.srv.H.K, func() {
					c.resQueue = append(c.resQueue, addr)
				})
			} else {
				c.resQueue = append(c.resQueue, addr)
			}
		} else {
			// Emulated SFlush: the receive buffer IS the log slot.
			c.postRecvServer(addr, entryBytes)
		}
		return c.cq.SendFlushAsync(entryBytes, image)
	default: // SRFlushRPC
		// Receive buffers are log-resident PM slots; the NIC persists
		// on placement and the server CPU notifies.
		c.postRecvServer(addr, entryBytes)
		durF := c.cq.ExpectNotify(seq)
		c.cq.SendAsync(entryBytes, image)
		return durF
	}
}

// postRecvServer registers a receive buffer on the server QP. The recv queue
// is server-NIC state: in engine mode the registration crosses as a
// lookahead-delayed control message. It always lands before the matching
// send — the hop arrives exactly one lookahead after the dispatch event,
// while the send leaves the client NIC strictly later (the WQE pipeline
// costs ProcPerWQE > 0) and then pays at least one lookahead of propagation.
// Hop emission order equals send order (the canonical cross merge preserves
// per-source order), so the FIFO buffer↔send matching is unchanged. The
// serial path stays closure-free for the alloc pins.
func (c *durableClient) postRecvServer(addr int64, length int) {
	if c.eng == nil {
		c.sq.PostRecv(addr, length)
		return
	}
	sq := c.sq // bind this incarnation: a reestablish swaps c.conn
	c.eng.PostAfterLookahead(c.cli.K, c.srv.H.K, func() {
		sq.PostRecv(addr, length)
	})
}

// issue deposits one request durably and returns (seq, durable future,
// response future).
func (c *durableClient) issue(p *sim.Proc, req *Request) (uint64, *sim.Future[sim.Time], *sim.Future[respMsg], error) {
	n := reqWireBytes(req)
	mutating := mutatingOp(req.Op)
	c.cli.Post(p) // WQE-posting cost up front: dispatch must not yield
	seq, addr, err := c.admit(p, n, mutating)
	if err != nil {
		return 0, nil, nil, err
	}
	image := c.encodeEntry(seq, req, n)
	entryBytes := int(redolog.EntrySize(n))
	respF := c.await(seq)
	durF := c.dispatch(p, seq, addr, entryBytes, image, mutating)
	return seq, durF, respF, nil
}

// Call implements the durable RPC contract: writes return at remote
// persistence (the paper's early visibility), reads return with the data.
func (c *durableClient) Call(p *sim.Proc, req *Request) (*Response, error) {
	issued := p.Now()
	_, durF, respF, err := c.issue(p, req)
	if err != nil {
		return nil, err
	}
	done := sim.NewFuture[sim.Time](p.K)
	respF.Then(func(rm respMsg) { done.Complete(rm.at) })

	if req.Op == OpWrite {
		dur := durF.Wait(p)
		return &Response{
			IssuedAt: issued, ReadyAt: dur, DurableAt: dur,
			Durable: durF, Done: done,
		}, nil
	}
	return readResponse(issued, respF.Wait(p), durF, done), nil
}

// readResponse assembles a durable-RPC read-path Response. The transport
// acknowledgement can trail the response the server already sent, so the
// future may be unresolved here; DurableAt is then backfilled when it
// completes rather than returned as a misleading zero ("durable at t=0").
func readResponse(issued sim.Time, rm respMsg, durF, done *sim.Future[sim.Time]) *Response {
	resp := &Response{
		Data: rm.data, IssuedAt: issued, ReadyAt: rm.at,
		Durable: durF, Done: done,
	}
	if durF.Done() {
		resp.DurableAt = durF.Value()
	} else {
		durF.Then(func(at sim.Time) { resp.DurableAt = at })
	}
	return resp
}

// CallBatch deposits a batch as one log entry with a single Flush (§4.3,
// Fig. 6(b)): one large transfer, one durability acknowledgement. A batch
// with no writes skips the flush machinery entirely (§5.5) — its durability
// future is just the transport acknowledgement.
func (c *durableClient) CallBatch(p *sim.Proc, reqs []*Request) ([]*Response, error) {
	if c.eng != nil {
		// The batch stash (c.batches) is written by the client and read by
		// the server; cross-partition that is a data race. Callers fall
		// back to unbatched Calls.
		return nil, ErrCrossPartition
	}
	issued := p.Now()
	breq, hasWrite := makeBatchFrame(reqs)
	n := reqWireBytes(breq)
	c.cli.Post(p) // WQE-posting cost up front: dispatch must not yield
	seq, addr, err := c.admit(p, n, hasWrite)
	if err != nil {
		return nil, err
	}
	c.stash(seq, reqs)
	image := c.encodeEntry(seq, breq, n)
	entryBytes := int(redolog.EntrySize(n))
	respF := c.await(seq)
	durF := c.dispatch(p, seq, addr, entryBytes, image, hasWrite)
	done := sim.NewFuture[sim.Time](p.K)
	respF.Then(func(rm respMsg) { done.Complete(rm.at) })
	dur := durF.Wait(p)
	out := make([]*Response, len(reqs))
	for i := range reqs {
		out[i] = &Response{IssuedAt: issued, ReadyAt: dur, DurableAt: dur, Durable: durF, Done: done}
	}
	return out, nil
}

// Log exposes the connection's redo log (failure-recovery drivers use it).
func (c *durableClient) Log() *redolog.Log { return c.log }
