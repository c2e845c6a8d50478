package rpc

import (
	"prdma/internal/host"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// farmClient implements FaRM's RPC model (Fig. 2(b)): the sender writes the
// request into a ring buffer in the receiver's memory over RC; the receiver
// polls the ring, processes, and writes the response into the sender's ring.
type farmClient struct {
	*conn
}

// NewFaRM connects a FaRM-style client from cli to srv.
func NewFaRM(cli *host.Host, srv *Server, cfg Config) Client {
	c := &farmClient{conn: newConn(FaRM, cli, srv, cfg, rnic.RC)}
	c.startWriteDrain()
	startRingPoller(c.conn)
	return c
}

// startRingPoller runs the receiver-side polling loop shared by the
// write-ring systems (FaRM, and the process phase of ScaleRPC).
func startRingPoller(c *conn) {
	sq := c.sq // bind to this connection incarnation
	l := newRecvLoop(c.srv.H, sq.Arrivals, func() bool { return !c.closed && !sq.Dead() })
	l.start(func(arr rnic.Arrival) bool {
		if sq.Dead() {
			return false // crashed while polling
		}
		seq, req := decodeReq(arr.Data)
		c.enqueue(seq, workItem{req: req, respond: c.respondWrite(seq, req)})
		return true
	})
}

func (c *farmClient) Call(p *sim.Proc, req *Request) (*Response, error) {
	issued := p.Now()
	seq := c.nextSeq()
	f := c.await(seq)
	c.cli.Post(p)
	c.cq.WriteAsync(c.reqSlot(seq), reqWireBytes(req), encodeReq(seq, req))
	rm := f.Wait(p)
	return traditionalResponse(issued, rm, p.K), nil
}
