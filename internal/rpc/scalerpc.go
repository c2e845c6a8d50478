package rpc

import (
	"prdma/internal/host"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// scaleClient implements ScaleRPC (Fig. 2(g)): connections are time-sliced
// into a warm-up phase and process phases. In the warm-up, the sender only
// writes a descriptor holding the local address of the request; the receiver
// fetches the payload with an RDMA read, processes it, and writes back a
// completion. Process-phase calls then behave like FaRM. The paper
// interleaves one warm-up per 100 process calls (§5.1).
type scaleClient struct {
	*conn
	calls int
	// stageBuf is the staging area in the client's readable DRAM region
	// that the server reads from during warm-ups.
	stageBuf int64
}

// warmupMark tags warm-up descriptors (stored in the ScanLen header field,
// which warm-up descriptors do not otherwise use).
const warmupMark = 0x7FFFFFFF

// NewScaleRPC connects a ScaleRPC-style client from cli to srv.
func NewScaleRPC(cli *host.Host, srv *Server, cfg Config) Client {
	c := &scaleClient{conn: newConn(ScaleRPC, cli, srv, cfg, rnic.RC)}
	var err error
	c.stageBuf, err = cli.ReadArena.Alloc(int64(cfg.SlotSize))
	if err != nil {
		panic(err)
	}
	c.startWriteDrain()
	c.startPoller()
	return c
}

func (c *scaleClient) startPoller() {
	h := c.srv.H
	l := newRecvLoop(h, c.sq.Arrivals, func() bool { return !c.closed })
	// Warm-up: fetch the real request from the client. Warm-ups are one
	// call in ScaleRPCProcessPhases+1, so their read wait may allocate.
	var size int
	fetched := func(b []byte) {
		c.enqueueReq(decodeReq(b))
		l.next()
	}
	fetch := func() { c.sq.ReadAsync(c.stageBuf, make([]byte, size)).WaitFunc(fetched) }
	l.start(func(arr rnic.Arrival) bool {
		seq, req := decodeReq(arr.Data)
		if req.ScanLen == warmupMark {
			size = req.Size
			h.PostFunc(fetch)
			return false
		}
		c.enqueueReq(seq, req)
		return true
	})
}

// enqueueReq hands a decoded request (or batch frame) to the worker pool.
func (c *scaleClient) enqueueReq(seq uint64, req *Request) {
	var reqs []*Request
	if isBatchOp(req.Op) {
		reqs = c.batchReqs(seq, req)
	}
	c.enqueue(seq, workItem{req: req, reqs: reqs, respond: c.respondWrite(seq, req)})
}

func (c *scaleClient) Call(p *sim.Proc, req *Request) (*Response, error) {
	issued := p.Now()
	seq := c.nextSeq()
	f := c.await(seq)
	phases := c.cfg.ScaleRPCProcessPhases
	if phases <= 0 {
		phases = 100
	}
	warm := c.calls%(phases+1) == 0
	c.calls++
	if warm {
		// Stage the request locally, then write only its descriptor.
		c.cli.DRAM.Write(c.stageBuf, encodeReq(seq, req))
		desc := &Request{Op: req.Op, Key: req.Key, Size: reqWireBytes(req), ScanLen: warmupMark}
		c.cli.Post(p)
		c.cq.WriteAsync(c.reqSlot(seq), reqHeaderBytes, encodeReq(seq, desc))
	} else {
		c.cli.Post(p)
		c.cq.WriteAsync(c.reqSlot(seq), reqWireBytes(req), encodeReq(seq, req))
	}
	rm := f.Wait(p)
	return traditionalResponse(issued, rm, p.K), nil
}

// CallBatch issues a process-phase batch as one large write (ScaleRPC's
// batching, Fig. 19).
func (c *scaleClient) CallBatch(p *sim.Proc, reqs []*Request) ([]*Response, error) {
	issued := p.Now()
	seq := c.nextSeq()
	breq, _ := makeBatchFrame(reqs)
	c.stash(seq, reqs)
	f := c.await(seq)
	c.cli.Post(p)
	c.calls++
	c.cq.WriteAsync(c.reqSlot(seq), reqWireBytes(breq), encodeReq(seq, breq))
	rm := f.Wait(p)
	out := make([]*Response, len(reqs))
	for i := range reqs {
		out[i] = traditionalResponse(issued, rm, p.K)
	}
	return out, nil
}
