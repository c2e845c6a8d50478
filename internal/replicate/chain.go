package replicate

import (
	"errors"

	"prdma/internal/host"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// Chain is a HyperLoop-style NIC-offloaded replica chain (§4.5): the client
// writes to the head replica with a WFlush, each replica's NIC forwards the
// write to the next without any CPU involvement, and the single flush ACK
// the client receives certifies that the data is persistent on every
// replica in the group.
//
// Compared with the fan-out Client, the chain trades latency (hops
// serialize) for zero client fan-out cost and zero replica CPU on the
// replication path — exactly HyperLoop's offload argument, which the paper
// cites as the group-based alternative to its point-to-point primitives.
type Chain struct {
	head *rnic.QP

	// Writes counts chain writes issued.
	Writes int64
}

// NewChain wires client → replicas[0] → replicas[1] → ... with NIC
// forwarding. The replicas must share an address-space layout (they do:
// hosts map PM identically), because the write lands at the same address
// on every member.
func NewChain(client *host.Host, replicas []*host.Host) (*Chain, error) {
	if len(replicas) == 0 {
		return nil, errors.New("replicate: empty chain")
	}
	if client.NIC.Params.EmulateFlush {
		// The read-after-write emulation has no NIC-forwarding analogue:
		// a probe read only drains the local QP. Group offload is a
		// hardware capability — require the native primitives.
		return nil, errors.New("replicate: NIC chain offload requires native Flush primitives (Params.EmulateFlush=false)")
	}
	headQP := client.NIC.CreateQP(rnic.RC)
	headSrv := replicas[0].NIC.CreateQP(rnic.RC)
	rnic.Connect(headQP, headSrv)

	prevSrv := headSrv
	for i := 1; i < len(replicas); i++ {
		fwd := replicas[i-1].NIC.CreateQP(rnic.RC)
		next := replicas[i].NIC.CreateQP(rnic.RC)
		rnic.Connect(fwd, next)
		prevSrv.ChainNext = fwd
		prevSrv = next
	}
	return &Chain{head: headQP}, nil
}

// Write performs one group-durable write: it blocks p until every replica
// in the chain has persisted [addr, addr+n).
func (c *Chain) Write(p *sim.Proc, addr int64, n int, data []byte) sim.Time {
	c.Writes++
	return c.head.WriteFlush(p, addr, n, data)
}
