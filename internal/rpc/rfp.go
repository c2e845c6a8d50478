package rpc

import (
	"prdma/internal/host"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// rfpClient implements RFP's "remote fetching paradigm" (Fig. 2(f)): the
// sender writes the request to the receiver, the receiver processes it and
// deposits the result in its own memory, and the sender collects the result
// with RDMA reads — polling until the result appears.
type rfpClient struct {
	*conn
	// resultRing holds results in the server's readable DRAM region,
	// fetched by the client.
	resultRing int64
	// hdr is the header-only result the deposit copies into the slot.
	hdr [respHeaderBytes]byte
}

// NewRFP connects an RFP-style client from cli to srv.
func NewRFP(cli *host.Host, srv *Server, cfg Config) Client {
	c := &rfpClient{conn: newConn(RFP, cli, srv, cfg, rnic.RC)}
	var err error
	c.resultRing, err = srv.H.ReadArena.Alloc(int64(cfg.RingSlots * cfg.SlotSize))
	if err != nil {
		panic(err)
	}
	c.startPoller()
	return c
}

func (c *rfpClient) resultSlot(seq uint64) int64 {
	return c.resultRing + int64(int(seq)%c.cfg.RingSlots)*int64(c.cfg.SlotSize)
}

func (c *rfpClient) startPoller() {
	l := newRecvLoop(c.srv.H, c.sq.Arrivals, func() bool { return !c.closed })
	l.start(func(arr rnic.Arrival) bool {
		seq, req := decodeReq(arr.Data)
		slot := c.resultSlot(seq)
		c.enqueue(seq, workItem{req: req, copyReply: true, respond: func(img []byte) {
			// The result is deposited locally; no wire traffic —
			// the client fetches it. The deposit copies the image
			// into the slot, so it goes back to the pool at once.
			if img == nil {
				img = c.hdr[:]
			}
			putRespHeader(img, seq)
			c.srv.H.DRAM.Write(slot, img)
			c.releaseReply(seq)
		}})
		return true
	})
}

func (c *rfpClient) Call(p *sim.Proc, req *Request) (*Response, error) {
	issued := p.Now()
	seq := c.nextSeq()
	c.cli.Post(p)
	c.cq.WriteAsync(c.reqSlot(seq), reqWireBytes(req), encodeReq(seq, req))
	// Fetch loop: RDMA read the result slot until our seq appears. Every
	// poll reads into one connection-owned buffer; the poll that finds
	// the result hands it to the caller (see conn.hold).
	slot := c.resultSlot(seq)
	buf := c.replyBuf(respWireBytes(req))
	for {
		p.Sleep(c.cfg.RFPPollInterval)
		c.cli.Post(p)
		got, data := decodeResp(c.cq.Read(p, slot, buf))
		if got == seq {
			c.hold(buf)
			done := sim.NewFuture[sim.Time](p.K)
			done.Complete(p.Now())
			return &Response{
				Data: data, IssuedAt: issued, ReadyAt: p.Now(),
				DurableAt: p.Now(), Durable: done, Done: done,
			}, nil
		}
	}
}
