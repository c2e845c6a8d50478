package rpc

import (
	"encoding/binary"

	"prdma/internal/host"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// l5Client implements L5's RPC model (Fig. 2(e)): the sender issues two RDMA
// writes — the request data, then a small valid flag — and the receiver
// polls for the flag before processing. The response returns via an RDMA
// write to the sender's ring.
type l5Client struct {
	*conn
	flagRing int64
}

// l5FlagBytes is the valid-flag write size.
const l5FlagBytes = 8

// NewL5 connects an L5-style client from cli to srv.
func NewL5(cli *host.Host, srv *Server, cfg Config) Client {
	c := &l5Client{conn: newConn(L5, cli, srv, cfg, rnic.RC)}
	var err error
	c.flagRing, err = srv.H.MsgArena.Alloc(int64(cfg.RingSlots) * l5FlagBytes)
	if err != nil {
		panic(err)
	}
	c.startWriteDrain()
	c.startPoller()
	return c
}

// startPoller polls for valid flags; data writes (which RC delivers first)
// are stashed until their flag lands.
func (c *l5Client) startPoller() {
	stash := make(map[uint64][]byte)
	l := newRecvLoop(c.srv.H, c.sq.Arrivals, func() bool { return !c.closed })
	l.start(func(arr rnic.Arrival) bool {
		if arr.N > l5FlagBytes {
			seq, _ := decodeReq(arr.Data)
			stash[seq] = arr.Data
			return true
		}
		seq := binary.LittleEndian.Uint64(arr.Data)
		data, ok := stash[seq]
		if !ok {
			return true // flag without data: model bug guard
		}
		delete(stash, seq)
		s, req := decodeReq(data)
		c.enqueue(s, workItem{req: req, respond: c.respondWrite(s, req)})
		return true
	})
}

func (c *l5Client) Call(p *sim.Proc, req *Request) (*Response, error) {
	issued := p.Now()
	seq := c.nextSeq()
	f := c.await(seq)
	c.cli.Post(p)
	c.cq.WriteAsync(c.reqSlot(seq), reqWireBytes(req), encodeReq(seq, req))
	flag := make([]byte, l5FlagBytes)
	binary.LittleEndian.PutUint64(flag, seq)
	c.cli.Post(p)
	c.cq.WriteAsync(c.flagRing+int64(int(seq)%c.cfg.RingSlots)*l5FlagBytes, l5FlagBytes, flag)
	rm := f.Wait(p)
	return traditionalResponse(issued, rm, p.K), nil
}
