package rpc

import (
	"prdma/internal/host"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// herdClient implements Herd's RPC model (Fig. 2(c)): requests are UC RDMA
// writes into the server's request region (no ACKs), responses are UD sends.
type herdClient struct {
	*conn
	// Second QP pair for the UD response channel.
	cud, sud *rnic.QP
}

// NewHerd connects a Herd-style client from cli to srv.
func NewHerd(cli *host.Host, srv *Server, cfg Config) Client {
	c := &herdClient{conn: newConn(Herd, cli, srv, cfg, rnic.UC)}
	c.cud = cli.NIC.CreateQP(rnic.UD)
	c.sud = srv.H.NIC.CreateQP(rnic.UD)
	rnic.Connect(c.cud, c.sud)
	for i := 0; i < cfg.RingSlots; i++ {
		c.cud.PostRecv(c.respSlot(uint64(i)), cfg.SlotSize)
	}
	c.startUDDrain()
	c.startPoller()
	return c
}

func (c *herdClient) startUDDrain() {
	l := newRecvLoop(c.cli, c.cud.RecvCQ, func() bool { return !c.closed })
	l.start(func(rcv rnic.Recv) bool {
		c.cud.PostRecv(rcv.Addr, c.cfg.SlotSize)
		seq, data := decodeResp(rcv.Data)
		c.complete(seq, data, c.cli.K.Now())
		return true
	})
}

func (c *herdClient) startPoller() {
	l := newRecvLoop(c.srv.H, c.sq.Arrivals, func() bool { return !c.closed })
	l.start(func(arr rnic.Arrival) bool {
		seq, req := decodeReq(arr.Data)
		c.enqueue(seq, workItem{req: req, respond: func(img []byte) {
			n := respWireBytes(req)
			if n > rnic.UDMTU {
				n = rnic.UDMTU // Herd segments large responses; model the first MTU
			}
			c.sud.SendAsync(n, c.seal(seq, img))
		}})
		return true
	})
}

func (c *herdClient) Call(p *sim.Proc, req *Request) (*Response, error) {
	issued := p.Now()
	seq := c.nextSeq()
	f := c.await(seq)
	c.cli.Post(p)
	c.cq.WriteAsync(c.reqSlot(seq), reqWireBytes(req), encodeReq(seq, req))
	rm := f.Wait(p)
	return traditionalResponse(issued, rm, p.K), nil
}
