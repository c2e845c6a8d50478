package rpc

import (
	"prdma/internal/host"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// octopusDurable implements the §4.4.1 case study (Fig. 7(a)): retrofitting
// remote data persistence onto Octopus with the WFlush primitive.
//
// Octopus normally learns an object's address through a write-imm RPC and
// then writes the data one-sided — with no persistence guarantee. The case
// study appends a WFlush to the data write: the sender observes durability
// at the flush ACK, without the receiver's CPU persisting anything.
//
// Unlike the durable RPCs of §4.2, there is no redo log here: the write
// goes straight to the object's PM home. Durability is guaranteed, failure
// *atomicity* is not — this is exactly the gap §4.2 fills, which the case
// study makes measurable.
type octopusDurable struct {
	*conn
	// addrCache caches resolved object addresses (the imm-RPC results),
	// as Octopus clients do.
	addrCache map[uint64]int64
}

// OctopusWFlush is the Kind reported by the case-study client.
const OctopusWFlush = Kind(100)

// NewOctopusDurable connects the Fig. 7(a) case-study client.
func NewOctopusDurable(cli *host.Host, srv *Server, cfg Config) Client {
	c := &octopusDurable{
		conn:      newConn(OctopusWFlush, cli, srv, cfg, rnic.RC),
		addrCache: make(map[uint64]int64),
	}
	c.startRecvDrain(false)
	c.startAddrServer()
	return c
}

// startAddrServer answers the metadata write-imm RPCs: it resolves the
// object's PM address and write-imms it back (the warm-up of Fig. 7(a)).
func (c *octopusDurable) startAddrServer() {
	sq := c.sq
	h := c.srv.H
	l := newRecvLoop(h, sq.RecvCQ, func() bool { return !c.closed && !sq.Dead() })
	// The request in hand waits in seq and key across the dispatch and
	// post delays, and its reply in resp.
	var seq, key uint64
	var resp []byte
	send := func() {
		sq.WriteImmAsync(c.respSlot(seq), respHeaderBytes+8, resp, uint32(seq))
		resp = nil
		l.next()
	}
	resolve := func() {
		// Address resolution is a metadata lookup, not a data op.
		resp = encodeResp(seq, encodeAddr(c.srv.Store.Addr(key)))
		h.PostFunc(send)
	}
	l.start(func(rcv rnic.Recv) bool {
		if sq.Dead() {
			return false
		}
		var req *Request
		seq, req = decodeReq(rcv.Data)
		key = req.Key
		h.DispatchFunc(resolve)
		return false
	})
}

func encodeAddr(a int64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(a >> (8 * i))
	}
	return b
}

func decodeAddr(b []byte) int64 {
	var a int64
	for i := 0; i < 8 && i < len(b); i++ {
		a |= int64(b[i]) << (8 * i)
	}
	return a
}

// resolve returns the object's remote PM address, using the imm-RPC on a
// cache miss.
func (c *octopusDurable) resolve(p *sim.Proc, key uint64) (int64, error) {
	if a, ok := c.addrCache[key]; ok {
		return a, nil
	}
	seq := c.nextSeq()
	f := c.await(seq)
	c.cli.Post(p)
	c.cq.WriteImmAsync(c.reqSlot(seq), reqHeaderBytes, encodeReq(seq, &Request{Op: OpRead, Key: key}), uint32(seq))
	rm := f.Wait(p)
	addr := decodeAddr(rm.data)
	c.addrCache[key] = addr
	return addr, nil
}

// Call implements the case-study data path: resolve the address (cached
// after the first touch), then write+WFlush directly to the object home.
// Reads use a one-sided RDMA read of the object.
func (c *octopusDurable) Call(p *sim.Proc, req *Request) (*Response, error) {
	issued := p.Now()
	addr, err := c.resolve(p, req.Key)
	if err != nil {
		return nil, err
	}
	done := sim.NewFuture[sim.Time](p.K)
	switch req.Op {
	case OpWrite:
		c.cli.Post(p)
		dur := c.cq.WriteFlush(p, addr, req.Size, req.Payload)
		c.srv.Store.Writes++
		done.Complete(dur)
		return &Response{IssuedAt: issued, ReadyAt: dur, DurableAt: dur, Durable: done, Done: done}, nil
	default:
		c.cli.Post(p)
		data := c.cq.Read(p, addr, make([]byte, req.Size))
		c.srv.Store.Reads++
		now := p.Now()
		done.Complete(now)
		if req.Payload == nil {
			data = nil
		}
		return &Response{Data: data, IssuedAt: issued, ReadyAt: now, DurableAt: now, Durable: done, Done: done}, nil
	}
}
