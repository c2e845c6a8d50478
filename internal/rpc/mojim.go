package rpc

import (
	"prdma/internal/host"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// Mojim is the Table 1 entry for Mojim (ASPLOS '15): a reliable NVM system
// with primary-backup mirroring.
const Mojim = Kind(102)

// mojimClient models Mojim's replicated write path: the client sends data
// to the primary; the primary's CPU persists it locally, forwards it to the
// mirror node, and only acknowledges the client once the mirror has
// persisted too. Every hop involves a CPU — the contrast the paper's §4.5
// discussion (and our NIC-offloaded chain) is about. Reads are served by
// the primary alone.
type mojimClient struct {
	*conn
	// fwd is the primary→mirror connection; the primary host is its
	// client side.
	fwd    *conn
	mirror *Server
}

// NewMojim connects a Mojim-style client: cli → primary, mirrored to
// mirror. The two servers must live on different hosts.
func NewMojim(cli *host.Host, primary, mirror *Server, cfg Config) Client {
	c := &mojimClient{
		conn:   newConn(Mojim, cli, primary, cfg, rnic.RC),
		fwd:    newConn(Mojim, primary.H, mirror, cfg, rnic.RC),
		mirror: mirror,
	}
	for i := 0; i < cfg.RingSlots; i++ {
		c.sq.PostRecv(c.reqSlot(uint64(i)), cfg.SlotSize)
		c.fwd.sq.PostRecv(c.fwd.reqSlot(uint64(i)), cfg.SlotSize)
	}
	c.postClientRecvs()
	c.fwd.postClientRecvs()
	c.startRecvDrain(true)
	c.fwd.startRecvDrain(true)
	c.startPrimary()
	c.startMirror()
	return c
}

// startPrimary persists locally, mirrors, then acknowledges. The loop runs
// as kernel callbacks (see recvLoop); the write in hand waits in seq, req
// and the mirror's response future across its local persist, the forward
// and the mirror's ack. Waiting for that ack allocates one closure per
// write, in Future.WaitFunc.
func (c *mojimClient) startPrimary() {
	sq := c.sq
	h := c.srv.H
	l := newRecvLoop(h, sq.RecvCQ, func() bool { return !c.closed && !sq.Dead() })
	var (
		seq, fseq uint64
		req       *Request
		ff        *sim.Future[respMsg]
	)
	acked := func() {
		sq.SendAsync(respHeaderBytes, encodeResp(seq, nil))
		req, ff = nil, nil
		l.next()
	}
	mirrored := func(respMsg) { h.PostFunc(acked) }
	forward := func() {
		c.fwd.cq.SendAsync(reqWireBytes(req), encodeReq(fseq, req))
		ff.WaitFunc(mirrored)
	}
	// Local persist done: mirror before acknowledging.
	store := c.srv.Store.newApply(func([]byte) {
		fseq = c.fwd.nextSeq()
		ff = c.fwd.await(fseq)
		h.PostFunc(forward)
	})
	l.start(func(rcv rnic.Recv) bool {
		if sq.Dead() {
			return false
		}
		sq.PostRecv(rcv.Addr, c.cfg.SlotSize)
		var r *Request
		seq, r = decodeReq(rcv.Data)
		if r.Op != OpWrite {
			c.enqueue(seq, workItem{req: r, respond: c.respondSend(seq, r)})
			return true
		}
		req = r
		store.apply(r)
		return false
	})
}

// startMirror persists the forwarded copy and acknowledges the primary, as
// kernel callbacks like the primary.
func (c *mojimClient) startMirror() {
	msq := c.fwd.sq
	h := c.mirror.H
	l := newRecvLoop(h, msq.RecvCQ, func() bool { return !c.closed && !msq.Dead() })
	var seq uint64
	acked := func() {
		msq.SendAsync(respHeaderBytes, encodeResp(seq, nil))
		l.next()
	}
	store := c.mirror.Store.newApply(func([]byte) { h.PostFunc(acked) })
	l.start(func(rcv rnic.Recv) bool {
		if msq.Dead() {
			return false
		}
		msq.PostRecv(rcv.Addr, c.cfg.SlotSize)
		var req *Request
		seq, req = decodeReq(rcv.Data)
		store.apply(req)
		return false
	})
}

func (c *mojimClient) Call(p *sim.Proc, req *Request) (*Response, error) {
	issued := p.Now()
	seq := c.nextSeq()
	f := c.await(seq)
	c.cli.Post(p)
	c.cq.SendAsync(reqWireBytes(req), encodeReq(seq, req))
	rm := f.Wait(p)
	return traditionalResponse(issued, rm, p.K), nil
}
