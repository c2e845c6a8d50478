// Package replicate implements the paper's §4.5 extension: data persistence
// with multiple replicas. A replicated write fans one durable RPC out to R
// replica servers and completes according to a persistence policy:
//
//   - WaitAll — every replica's RDMA Flush has acknowledged. Strongest:
//     any replica can serve after a failure.
//   - WaitQuorum — a majority acknowledged. The paper notes that RC cannot
//     order Flush ACKs across independent replicas, so distributed
//     consistency needs a consensus-style tradeoff; a quorum is the classic
//     one, trading tail latency for weaker per-replica guarantees.
//
// Reads are policy-aware: they round-robin over the live, in-sync replicas.
// Under WaitQuorum a replica that has not yet acknowledged every completed
// write is stale and gets skipped (the staleness guard), so a read never
// observes a replica behind the acknowledged prefix. The redo-log machinery
// carries over per replica, so a crashed replica recovers its backlog
// locally and is resynchronized by replaying — exactly the "foundational
// capability for data replication protocols" the paper claims.
//
// Membership is explicit: a failover controller (internal/cluster) calls
// MarkDown when it detects a crash and MarkUp after resynchronizing the
// replica. Marked-down replicas receive no traffic and do not count toward
// WaitAll (which then means "all live replicas"); WaitQuorum still requires
// a majority of the full configured set, so a shard with a minority of
// replicas up refuses writes rather than silently weakening the guarantee.
package replicate

import (
	"errors"
	"fmt"
	"time"

	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// Policy selects the write-completion rule.
type Policy int

const (
	// WaitAll completes a write when every replica persisted it.
	WaitAll Policy = iota
	// WaitQuorum completes a write at a majority of persistence ACKs.
	WaitQuorum
)

func (p Policy) String() string {
	if p == WaitQuorum {
		return "quorum"
	}
	return "all"
}

// ErrUnavailable reports that too few replicas are live to satisfy the
// policy (WaitQuorum with a minority up, or no replica up at all).
var ErrUnavailable = errors.New("replicate: not enough live replicas")

// Client is a replicated durable-RPC client.
type Client struct {
	K        *sim.Kernel
	Policy   Policy
	replicas []rpc.AsyncClient

	// down marks replicas excluded from traffic (crashed and not yet
	// resynchronized); acked counts durable ACKs received per replica and
	// completed counts policy-met writes. Together they form the staleness
	// guard: acked[i] >= completed means replica i has persisted every
	// write this client has acknowledged (ACKs arrive in issue order on a
	// connection, and writes are issued one at a time per Client).
	down      []bool
	acked     []int64
	completed int64
	rr        int // round-robin read cursor

	pendBuf []*rpc.Pending // per-write scratch, reused across calls
	idxBuf  []int

	// Writes/Reads count operations; SlowestWaits counts writes where the
	// policy saved waiting on a straggler (quorum met before all ACKs).
	// StaleSkips counts reads diverted away from a lagging replica by the
	// staleness guard; ReadsByReplica records where reads actually landed.
	Writes, Reads, SlowestWaits int64
	StaleSkips                  int64
	ReadsByReplica              []int64

	// WriteTag and OnDurable, both set, observe per-replica durability:
	// WriteTag extracts an opaque tag from each write at issue time (before
	// the caller can reuse the payload buffer), and OnDurable fires with
	// that tag once per replica durability ACK. A durable ACK asserts the
	// write is remotely persistent on that replica — the §4.2 contract the
	// crash-point auditor holds each replica to.
	WriteTag  func(req *rpc.Request) uint64
	OnDurable func(replica int, tag uint64, at sim.Time)
}

// New builds a replicated client over per-replica durable connections.
// Every replica client must support asynchronous issue (the durable RPCs
// do; traditional RPCs cannot replicate without blocking serially).
func New(k *sim.Kernel, policy Policy, replicas []rpc.Client) (*Client, error) {
	if len(replicas) == 0 {
		return nil, errors.New("replicate: no replicas")
	}
	c := &Client{K: k, Policy: policy}
	for _, r := range replicas {
		ac, ok := r.(rpc.AsyncClient)
		if !ok {
			return nil, fmt.Errorf("replicate: %v cannot issue asynchronously", r.Kind())
		}
		c.replicas = append(c.replicas, ac)
	}
	n := len(c.replicas)
	c.down = make([]bool, n)
	c.acked = make([]int64, n)
	c.ReadsByReplica = make([]int64, n)
	c.pendBuf = make([]*rpc.Pending, 0, n)
	c.idxBuf = make([]int, 0, n)
	return c, nil
}

// Live returns how many replicas are currently marked up.
func (c *Client) Live() int {
	live := 0
	for _, d := range c.down {
		if !d {
			live++
		}
	}
	return live
}

// need returns how many persistence ACKs complete a write.
func (c *Client) need() int {
	if c.Policy == WaitQuorum {
		return len(c.replicas)/2 + 1
	}
	return len(c.replicas)
}

// MarkDown excludes replica i from writes and reads until MarkUp.
func (c *Client) MarkDown(i int) { c.down[i] = true }

// MarkUp readmits replica i. The caller must have resynchronized it first
// (log shipping in internal/cluster); readmission credits the replica as
// caught up with every completed write.
func (c *Client) MarkUp(i int) {
	c.down[i] = false
	c.acked[i] = c.completed
}

// Down reports whether replica i is currently marked down.
func (c *Client) Down(i int) bool { return c.down[i] }

// Replica exposes replica i's client (recovery and resync drivers use it).
func (c *Client) Replica(i int) rpc.AsyncClient { return c.replicas[i] }

// Write replicates one durable write and blocks p until the policy is
// satisfied. It returns the completion time and the number of replicas
// that had persisted by then.
func (c *Client) Write(p *sim.Proc, req *rpc.Request) (sim.Time, int, error) {
	return c.write(p, req, 0)
}

// WriteTimeout is Write with a deadline. On timeout the write may still be
// durable on some replicas; the caller decides whether to retry (replicated
// full-object writes are idempotent, so retrying is safe).
func (c *Client) WriteTimeout(p *sim.Proc, req *rpc.Request, d time.Duration) (sim.Time, int, error) {
	return c.write(p, req, d)
}

func (c *Client) write(p *sim.Proc, req *rpc.Request, timeout time.Duration) (sim.Time, int, error) {
	if req.Op != rpc.OpWrite {
		return 0, 0, errors.New("replicate: Write requires OpWrite")
	}
	need := c.need()
	live := c.Live()
	if c.Policy == WaitAll {
		need = live // marked-down replicas left the write set
	}
	if live == 0 || live < need {
		return 0, 0, ErrUnavailable
	}
	c.Writes++
	var tag uint64
	if c.WriteTag != nil && c.OnDurable != nil {
		tag = c.WriteTag(req)
	}
	c.pendBuf = c.pendBuf[:0]
	c.idxBuf = c.idxBuf[:0]
	for i, r := range c.replicas {
		if c.down[i] {
			continue
		}
		pend, err := r.CallAsync(p, req)
		if err != nil {
			return 0, 0, err
		}
		c.pendBuf = append(c.pendBuf, pend)
		c.idxBuf = append(c.idxBuf, i)
	}
	acked := 0
	met := sim.NewFuture[sim.Time](c.K)
	for j := range c.pendBuf {
		i := c.idxBuf[j]
		c.pendBuf[j].Durable.Then(func(at sim.Time) {
			c.acked[i]++
			if c.OnDurable != nil {
				c.OnDurable(i, tag, at)
			}
			acked++
			if acked == need {
				met.Complete(at)
			}
		})
	}
	var done sim.Time
	if timeout > 0 {
		var ok bool
		if done, ok = met.WaitTimeout(p, timeout); !ok {
			return 0, acked, rpc.ErrTimeout
		}
	} else {
		done = met.Wait(p)
	}
	c.completed++
	if acked < live {
		c.SlowestWaits++
	}
	return done, acked, nil
}

// pickReader chooses the replica for the next read: round-robin over the
// live, in-sync replicas; replicas lagging behind the acknowledged prefix
// are skipped (StaleSkips). If no live replica is in sync — transiently
// possible while quorum ACKs are in flight — it falls back to the
// most-caught-up live replica, which by quorum intersection holds the most
// recent acknowledged data among the live set.
func (c *Client) pickReader() int {
	n := len(c.replicas)
	best, bestAcked := -1, int64(-1)
	for off := 0; off < n; off++ {
		i := (c.rr + off) % n
		if c.down[i] {
			continue
		}
		if c.acked[i] >= c.completed {
			c.rr = (i + 1) % n
			return i
		}
		c.StaleSkips++
		if c.acked[i] > bestAcked {
			best, bestAcked = i, c.acked[i]
		}
	}
	return best
}

// Read fetches from a live, in-sync replica (see pickReader).
func (c *Client) Read(p *sim.Proc, req *rpc.Request) (*rpc.Response, error) {
	i := c.pickReader()
	if i < 0 {
		return nil, ErrUnavailable
	}
	c.Reads++
	c.ReadsByReplica[i]++
	return c.replicas[i].Call(p, req)
}

// ReadTimeout is Read with a deadline, for callers racing a failover window.
func (c *Client) ReadTimeout(p *sim.Proc, req *rpc.Request, d time.Duration) (*rpc.Response, error) {
	i := c.pickReader()
	if i < 0 {
		return nil, ErrUnavailable
	}
	c.Reads++
	c.ReadsByReplica[i]++
	if rec, ok := c.replicas[i].(rpc.Recoverable); ok {
		return rec.CallTimeout(p, req, d)
	}
	return c.replicas[i].Call(p, req)
}
