package rpc

import (
	"fmt"

	"prdma/internal/host"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// sendClient implements the two-sided RPC models: DaRPC (Fig. 2(a), RC
// send/recv both ways) and FaSST (Fig. 2(d), UD send/recv both ways, 4 KB
// MTU). The receiver's CPU is interrupted for every message: it parses the
// request from the receive buffer, processes it, and sends the response.
type sendClient struct {
	*conn
}

// NewDaRPC connects a DaRPC-style client from cli to srv.
func NewDaRPC(cli *host.Host, srv *Server, cfg Config) Client {
	return newSendClient(DaRPC, rnic.RC, cli, srv, cfg)
}

// NewFaSST connects a FaSST-style client (UD datagrams).
func NewFaSST(cli *host.Host, srv *Server, cfg Config) Client {
	return newSendClient(FaSST, rnic.UD, cli, srv, cfg)
}

func newSendClient(kind Kind, tp rnic.Transport, cli *host.Host, srv *Server, cfg Config) Client {
	c := &sendClient{conn: newConn(kind, cli, srv, cfg, tp)}
	// Server receive buffers live in the request ring (DRAM).
	for i := 0; i < cfg.RingSlots; i++ {
		c.sq.PostRecv(c.reqSlot(uint64(i)), cfg.SlotSize)
	}
	c.postClientRecvs()
	c.startRecvDrain(true)
	c.startServerRecv()
	return c
}

func (c *sendClient) startServerRecv() {
	l := newRecvLoop(c.srv.H, c.sq.RecvCQ, func() bool { return !c.closed })
	l.start(func(rcv rnic.Recv) bool {
		c.sq.PostRecv(rcv.Addr, c.cfg.SlotSize)
		seq, req := decodeReq(rcv.Data)
		var reqs []*Request
		if isBatchOp(req.Op) {
			reqs = c.batchReqs(seq, req)
		}
		c.enqueue(seq, workItem{req: req, reqs: reqs, respond: c.respondSend(seq, req)})
		return true
	})
}

// checkMTU rejects a FaSST call whose request or response frame exceeds the
// UD MTU: datagrams are not segmented, which is why the paper drops FaSST
// at 64 KB. req is the frame on the wire (a batch's enclosing frame).
func (c *sendClient) checkMTU(req *Request) error {
	if c.kind != FaSST {
		return nil
	}
	if n := max(reqWireBytes(req), respWireBytes(req)); n > rnic.UDMTU {
		return fmt.Errorf("fasst: %d-byte frame exceeds the UD MTU (%d)", n, rnic.UDMTU)
	}
	return nil
}

func (c *sendClient) Call(p *sim.Proc, req *Request) (*Response, error) {
	if err := c.checkMTU(req); err != nil {
		return nil, err
	}
	issued := p.Now()
	seq := c.nextSeq()
	f := c.await(seq)
	c.cli.Post(p)
	c.cq.SendAsync(reqWireBytes(req), encodeReq(seq, req))
	rm := f.Wait(p)
	return traditionalResponse(issued, rm, p.K), nil
}

// CallBatch batches several requests into one send (DaRPC batching, §4.3):
// one message, one receiver interrupt, one response.
func (c *sendClient) CallBatch(p *sim.Proc, reqs []*Request) ([]*Response, error) {
	breq, _ := makeBatchFrame(reqs)
	if err := c.checkMTU(breq); err != nil {
		return nil, err
	}
	issued := p.Now()
	seq := c.nextSeq()
	c.stash(seq, reqs)
	f := c.await(seq)
	c.cli.Post(p)
	c.cq.SendAsync(reqWireBytes(breq), encodeReq(seq, breq))
	rm := f.Wait(p)
	out := make([]*Response, len(reqs))
	for i := range reqs {
		out[i] = traditionalResponse(issued, rm, p.K)
	}
	return out, nil
}
