package rpc

import (
	"prdma/internal/sim"
)

// Pending is an in-flight asynchronous RPC (see AsyncClient).
type Pending struct {
	IssuedAt sim.Time
	// Durable resolves when the payload is persistent in the remote PM.
	Durable *sim.Future[sim.Time]
	// Done resolves when the RPC is fully processed (response received).
	Done *sim.Future[sim.Time]
}

// AsyncClient issues RPCs without blocking the caller — the building block
// for replication (§4.5), where one write fans out to several replicas and
// the sender coordinates on their flush acknowledgements.
type AsyncClient interface {
	Client
	// CallAsync deposits the request and returns immediately with its
	// completion futures.
	CallAsync(p *sim.Proc, req *Request) (*Pending, error)
}

// CallAsync implements AsyncClient for the durable RPCs.
func (c *durableClient) CallAsync(p *sim.Proc, req *Request) (*Pending, error) {
	issued := p.Now()
	_, durF, respF, err := c.issue(p, req)
	if err != nil {
		return nil, err
	}
	done := sim.NewFuture[sim.Time](p.K)
	respF.Then(func(rm respMsg) { done.Complete(rm.at) })
	return &Pending{IssuedAt: issued, Durable: durF, Done: done}, nil
}
