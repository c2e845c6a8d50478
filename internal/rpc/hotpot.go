package rpc

import (
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// Hotpot is the Table 1 entry for Hotpot (SoCC '17): a distributed shared
// persistent memory system whose writes run a multi-phase commit through
// the data server's CPU.
const Hotpot = Kind(101)

// hotpotClient models Hotpot's write path as a two-phase send-based RPC:
//
//	phase 1: the client sends the data; the server CPU persists it into a
//	         staging area and acknowledges;
//	phase 2: the client sends a commit; the server atomically commits
//	         (applies the staged data to its home) and acknowledges.
//
// Durability is only certain after the second acknowledgement — two full
// round trips with the receiver CPU on both, which is exactly the overhead
// the paper contrasts its one-round NIC-acknowledged primitives against.
// Reads are ordinary one-round send RPCs.
type hotpotClient struct {
	*conn
	// staged holds phase-1 payloads awaiting commit, keyed by sequence.
	staged map[uint64]*Request
	// stagingBuf is the PM staging area the server persists into.
	stagingBuf int64
}

// opHotpotPrepare and opHotpotCommit are the protocol's internal ops.
const (
	opHotpotPrepare Op = 210
	opHotpotCommit  Op = 211
)

// NewHotpot connects a Hotpot-style client from cli to srv.
func NewHotpot(cli *host.Host, srv *Server, cfg Config) Client {
	c := &hotpotClient{
		conn:   newConn(Hotpot, cli, srv, cfg, rnic.RC),
		staged: make(map[uint64]*Request),
	}
	var err error
	c.stagingBuf, err = srv.H.PMArena.Alloc(int64(cfg.RingSlots * cfg.SlotSize))
	if err != nil {
		panic(err)
	}
	for i := 0; i < cfg.RingSlots; i++ {
		c.sq.PostRecv(c.reqSlot(uint64(i)), cfg.SlotSize)
	}
	c.postClientRecvs()
	c.startRecvDrain(true)
	c.startServer()
	return c
}

// stageSlot is the staging address for a sequence number.
func (c *hotpotClient) stageSlot(seq uint64) int64 {
	return c.stagingBuf + int64(int(seq)%c.cfg.RingSlots)*int64(c.cfg.SlotSize)
}

// startServer runs the receiver loop as kernel callbacks (see recvLoop):
// prepares persist to staging, commits apply the staged request through the
// worker pool. A prepare waits in seq and req across its copy, persist and
// acknowledgement.
func (c *hotpotClient) startServer() {
	sq := c.sq
	h := c.srv.H
	l := newRecvLoop(h, sq.RecvCQ, func() bool { return !c.closed && !sq.Dead() })
	var seq uint64
	var req *Request
	acked := func() {
		sq.SendAsync(respHeaderBytes, encodeResp(seq, nil))
		req = nil
		l.next()
	}
	persisted := func() { h.PostFunc(acked) }
	copied := func() {
		h.PM.PersistFunc(c.stageSlot(seq), req.Size, req.Payload, pmem.CPU, persisted)
	}
	l.start(func(rcv rnic.Recv) bool {
		if sq.Dead() {
			return false
		}
		sq.PostRecv(rcv.Addr, c.cfg.SlotSize)
		s, r := decodeReq(rcv.Data)
		switch r.Op {
		case opHotpotPrepare:
			// Persist the payload into the staging area (CPU path)
			// and acknowledge phase 1.
			r.Op = OpWrite
			c.staged[s] = r
			seq, req = s, r
			h.MemcpyFunc(r.Size, copied)
			return false
		case opHotpotCommit:
			// Commit: apply the staged write via the worker pool and
			// acknowledge when durable at its home.
			staged, ok := c.staged[s-1]
			if !ok {
				return true // commit without prepare: protocol bug guard
			}
			delete(c.staged, s-1)
			c.enqueue(s, workItem{req: staged, respond: c.respondSend(s, staged)})
		default:
			c.enqueue(s, workItem{req: r, respond: c.respondSend(s, r)})
		}
		return true
	})
}

func (c *hotpotClient) Call(p *sim.Proc, req *Request) (*Response, error) {
	issued := p.Now()
	if req.Op != OpWrite {
		seq := c.nextSeq()
		f := c.await(seq)
		c.cli.Post(p)
		c.cq.SendAsync(reqWireBytes(req), encodeReq(seq, req))
		rm := f.Wait(p)
		return traditionalResponse(issued, rm, p.K), nil
	}
	// Phase 1: prepare (data travels here).
	prep := *req
	prep.Op = opHotpotPrepare
	seq1 := c.nextSeq()
	f1 := c.await(seq1)
	c.cli.Post(p)
	c.cq.SendAsync(reqHeaderBytes+req.Size, encodeReq(seq1, &prep))
	f1.Wait(p)
	// Phase 2: commit (seq2 == seq1+1 by construction; the server pairs
	// the commit with the immediately preceding prepare).
	commit := Request{Op: opHotpotCommit, Key: req.Key}
	seq2 := c.nextSeq()
	f2 := c.await(seq2)
	c.cli.Post(p)
	c.cq.SendAsync(reqHeaderBytes, encodeReq(seq2, &commit))
	rm := f2.Wait(p)
	return traditionalResponse(issued, rm, p.K), nil
}
