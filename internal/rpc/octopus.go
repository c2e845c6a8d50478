package rpc

import (
	"prdma/internal/host"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// immClient implements the write-with-immediate RPC models: Octopus
// (Fig. 2(h)) and LITE (Fig. 2(i)). The request is an RDMA write-imm into
// the server's ring — the immediate value interrupts the server CPU via a
// receive completion rather than memory polling — and the response returns
// the same way. LITE additionally pays a kernel crossing on each side
// because its RPCs live in the kernel.
type immClient struct {
	*conn
	syscall bool
}

// NewOctopus connects an Octopus-style client from cli to srv.
func NewOctopus(cli *host.Host, srv *Server, cfg Config) Client {
	return newImmClient(Octopus, cli, srv, cfg, false)
}

// NewLITE connects a LITE-style client (kernel-level write-imm RPCs).
func NewLITE(cli *host.Host, srv *Server, cfg Config) Client {
	return newImmClient(LITE, cli, srv, cfg, true)
}

func newImmClient(kind Kind, cli *host.Host, srv *Server, cfg Config, syscall bool) Client {
	c := &immClient{conn: newConn(kind, cli, srv, cfg, rnic.RC), syscall: syscall}
	c.startRecvDrain(false)
	c.startServerCQ()
	return c
}

func (c *immClient) startServerCQ() {
	h := c.srv.H
	l := newRecvLoop(h, c.sq.RecvCQ, func() bool { return !c.closed })
	// LITE's kernel crossing is one more delay between poll and dispatch;
	// the request waits in data meanwhile.
	var data []byte
	crossed := func() {
		c.enqueueImage(data)
		data = nil
		l.next()
	}
	l.start(func(rcv rnic.Recv) bool {
		if c.syscall {
			data = rcv.Data
			h.ComputeFunc(c.cfg.LITESyscall, crossed)
			return false
		}
		c.enqueueImage(rcv.Data)
		return true
	})
}

// enqueueImage decodes a request image and hands it to the worker pool.
func (c *immClient) enqueueImage(b []byte) {
	seq, req := decodeReq(b)
	c.enqueue(seq, workItem{req: req, respond: c.respondWriteImm(seq, req)})
}

func (c *immClient) Call(p *sim.Proc, req *Request) (*Response, error) {
	issued := p.Now()
	seq := c.nextSeq()
	f := c.await(seq)
	if c.syscall {
		c.cli.Compute(p, c.cfg.LITESyscall)
	}
	c.cli.Post(p)
	c.cq.WriteImmAsync(c.reqSlot(seq), reqWireBytes(req), encodeReq(seq, req), uint32(seq))
	rm := f.Wait(p)
	return traditionalResponse(issued, rm, p.K), nil
}
