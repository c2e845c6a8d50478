package pmpool

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"prdma/internal/cluster"
	"prdma/internal/host"
	"prdma/internal/redolog"
	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// Errors surfaced by the pool client.
var (
	ErrPoolFull = errors.New("pmpool: pool exhausted")
	ErrTooLarge = errors.New("pmpool: allocation exceeds the slab size")
	ErrBad      = errors.New("pmpool: request refused")
)

// Handle names one remote allocation.
type Handle struct {
	ID    uint64
	Addr  int64 // server-side address (diagnostic; clients never dereference)
	Class int64 // rounded allocation class
	Size  int64 // requested size
	// Server is the pool node the allocation lives on.
	Server int
}

// PoolConfig shapes one client's view of the pool cluster.
type PoolConfig struct {
	// ClientID disambiguates id spaces across client hosts (ids are
	// ClientID<<32 | counter, so they never collide and never hit 0).
	ClientID uint64
	// Kind is the durable RPC family carrying the pool protocol.
	Kind rpc.Kind
	// ConnsPerServer sizes the pooled fabric-connection set per pool node;
	// calls check connections out round-robin. Default 1.
	ConnsPerServer int
	// Vnodes is the consistent-hash ring's virtual node count per server.
	Vnodes int
	// RingSeed seeds the ring placement.
	RingSeed uint64
	// LeaseTTL must match the servers'; the renewer runs every LeaseTTL/3.
	LeaseTTL time.Duration
	// Timeout, when positive, issues every call with this deadline
	// (crash-recovery drivers retry on rpc.ErrTimeout). Zero blocks.
	Timeout time.Duration
}

// DefaultPoolConfig returns a single-connection WFlush-backed client.
func DefaultPoolConfig(clientID uint64) PoolConfig {
	return PoolConfig{
		ClientID:       clientID,
		Kind:           rpc.WFlushRPC,
		ConnsPerServer: 1,
		Vnodes:         32,
		RingSeed:       0x9E3779B97F4A7C15,
		LeaseTTL:       4 * time.Millisecond,
	}
}

// Pool is a client host's front end to the pool cluster: it stripes
// allocations across the servers by consistent hash of the allocation id,
// multiplexes traffic over a pooled set of durable fabric connections, and
// renews leases for every live handle on a sim timer.
type Pool struct {
	H   *host.Host
	Cfg PoolConfig

	servers []*Server
	ring    *cluster.Ring
	// conns[s] is the pooled connection set to server s; rr[s] deals them
	// out round-robin.
	conns [][]rpc.Recoverable
	rr    []int

	nextID uint64
	// live tracks handles the renewer keeps alive, per server.
	live map[uint64]*Handle

	stop bool
	// pause holds the renewer off while positive: issuing a renewal while a
	// connection's redo log is being recovered would race the recovery scan
	// (an append the scan misses is dropped from the rebuilt window, and its
	// eventual consume would fault). Reestablish pauses it; crash drivers
	// should hold a pause across their whole recover+reestablish span.
	pause int

	// Stats.
	Allocs, Frees, Writes, Reads int64
	WriteBytes, ReadBytes        int64
	Retries                      int64
}

// NewPool connects h to the pool servers. rcfg is the transport config used
// for every connection (the redo-log ring size in particular).
func NewPool(h *host.Host, servers []*Server, rcfg rpc.Config, cfg PoolConfig) *Pool {
	if cfg.ConnsPerServer <= 0 {
		cfg.ConnsPerServer = 1
	}
	if cfg.Vnodes <= 0 {
		cfg.Vnodes = 32
	}
	rcfg.Workers = 1
	pl := &Pool{
		H:       h,
		Cfg:     cfg,
		servers: servers,
		ring:    cluster.NewRing(len(servers), cfg.Vnodes, cfg.RingSeed),
		conns:   make([][]rpc.Recoverable, len(servers)),
		rr:      make([]int, len(servers)),
		live:    make(map[uint64]*Handle),
	}
	for si, srv := range servers {
		for c := 0; c < cfg.ConnsPerServer; c++ {
			cl := rpc.New(cfg.Kind, h, srv.RPC, rcfg)
			rec, ok := cl.(rpc.Recoverable)
			if !ok {
				panic(fmt.Sprintf("pmpool: %v is not recoverable", cfg.Kind))
			}
			pl.conns[si] = append(pl.conns[si], rec)
		}
	}
	if cfg.LeaseTTL > 0 {
		h.K.Go(h.Name+"-pmpool-renew", pl.renewLoop)
	}
	return pl
}

// Stop retires the renewer at its next tick (figure kernels drain on it).
func (pl *Pool) Stop() { pl.stop = true }

// PauseRenew holds the lease renewer off (counted; pair with ResumeRenew).
// Crash drivers bracket server recovery with it so no renewal appends to a
// redo log whose recovery scan is in flight.
func (pl *Pool) PauseRenew() { pl.pause++ }

// ResumeRenew undoes one PauseRenew.
func (pl *Pool) ResumeRenew() { pl.pause-- }

// conn checks a pooled connection to server s out round-robin.
func (pl *Pool) conn(s int) rpc.Recoverable {
	set := pl.conns[s]
	c := set[pl.rr[s]%len(set)]
	pl.rr[s]++
	return c
}

// call issues req on a pooled connection to server s, honoring Cfg.Timeout.
func (pl *Pool) call(p *sim.Proc, s int, req *rpc.Request) (*rpc.Response, error) {
	c := pl.conn(s)
	if pl.Cfg.Timeout > 0 {
		return c.CallTimeout(p, req, pl.Cfg.Timeout)
	}
	return c.Call(p, req)
}

// Alloc carves size bytes out of the pool and returns its handle.
func (pl *Pool) Alloc(p *sim.Proc, size int64) (*Handle, error) {
	pl.nextID++
	return pl.AllocID(p, pl.Cfg.ClientID<<32|pl.nextID, size)
}

// AllocID is Alloc with a caller-chosen id: crash-recovery drivers retry an
// interrupted alloc under the same id, so a durably-logged first attempt
// replays and the retry dedups against it server-side instead of leaking a
// second slot. The striping target is fixed by the id (consistent hash), so
// retry and replay land on the same server.
func (pl *Pool) AllocID(p *sim.Proc, id uint64, size int64) (*Handle, error) {
	s := pl.ring.Shard(id)
	resp, err := pl.call(p, s, encodeAlloc(id, size))
	if err != nil {
		return nil, err
	}
	res, err := decodeResult(resp.Data)
	if err != nil {
		return nil, err
	}
	switch res.status {
	case statusOK:
	case statusFull:
		return nil, ErrPoolFull
	case statusTooLarge:
		return nil, ErrTooLarge
	default:
		return nil, ErrBad
	}
	h := &Handle{ID: id, Addr: res.addr, Class: res.class, Size: size, Server: s}
	pl.live[id] = h
	pl.Allocs++
	return h, nil
}

// Free releases h. The lease stops being renewed first, so a crash between
// the two cannot leave the renewer resurrecting a freed id.
func (pl *Pool) Free(p *sim.Proc, h *Handle) error {
	delete(pl.live, h.ID)
	resp, err := pl.call(p, h.Server, encodeFree(h.ID))
	if err != nil {
		pl.live[h.ID] = h // still ours: caller retries (or lease expiry reclaims)
		return err
	}
	if res, derr := decodeResult(resp.Data); derr != nil || res.status != statusOK {
		return ErrBad
	}
	pl.Frees++
	return nil
}

// Abandon drops h from the renew set without freeing it: the orphaned-
// allocation case the server's lease reclaim must bound.
func (pl *Pool) Abandon(h *Handle) { delete(pl.live, h.ID) }

// Write lands data durably at offset off of h: the call returns when the
// payload is persistent on the pool node (the durable-RPC ack), not when it
// is processed.
func (pl *Pool) Write(p *sim.Proc, h *Handle, off int64, data []byte) error {
	if off < 0 || off+int64(len(data)) > h.Class {
		return ErrBad
	}
	if _, err := pl.call(p, h.Server, encodeWrite(h.ID, off, data)); err != nil {
		return err
	}
	pl.Writes++
	pl.WriteBytes += int64(len(data))
	return nil
}

// Read returns n bytes at offset off of h.
func (pl *Pool) Read(p *sim.Proc, h *Handle, off int64, n int) ([]byte, error) {
	if off < 0 || off+int64(n) > h.Class {
		return nil, ErrBad
	}
	resp, err := pl.call(p, h.Server, encodeRead(h.ID, off, n))
	if err != nil {
		return nil, err
	}
	pl.Reads++
	pl.ReadBytes += int64(n)
	return resp.Data, nil
}

// renewLoop batches one lease-renewal record per server every TTL/3 for all
// live handles, in sorted id order (deterministic wire traffic). Renewal
// failures are ignored: the crash-recovery driver reestablishes and the
// recovered server grants a fresh grace period anyway.
func (pl *Pool) renewLoop(p *sim.Proc) {
	for {
		p.Sleep(pl.Cfg.LeaseTTL / 3)
		if pl.stop {
			return
		}
		if pl.pause > 0 {
			continue
		}
		perServer := make(map[int][]uint64)
		for id, h := range pl.live {
			perServer[h.Server] = append(perServer[h.Server], id)
		}
		order := make([]int, 0, len(perServer))
		for s := range perServer {
			order = append(order, s)
		}
		sort.Ints(order)
		for _, s := range order {
			if pl.pause > 0 {
				break // recovery started mid-sweep: back off this tick
			}
			ids := perServer[s]
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			c := pl.conn(s)
			d := pl.Cfg.Timeout
			if d <= 0 {
				d = pl.Cfg.LeaseTTL / 3
			}
			if _, err := c.CallTimeout(p, encodeRenew(ids), d); err != nil {
				pl.Retries++
			}
			if pl.stop {
				return
			}
		}
	}
}

// Logs returns the redo log of every pooled connection (crash checkers
// hook recovery-scan invariants on them), ordered by server then slot.
func (pl *Pool) Logs() []*redolog.Log {
	var out []*redolog.Log
	for _, set := range pl.conns {
		for _, c := range set {
			out = append(out, c.(interface{ Log() *redolog.Log }).Log())
		}
	}
	return out
}

// Reestablish rebuilds every pooled connection to server s after its
// restart, replaying unconsumed durable requests. Returns the total
// replayed across the connection set.
func (pl *Pool) Reestablish(p *sim.Proc, s int) (int, error) {
	pl.PauseRenew()
	defer pl.ResumeRenew()
	total := 0
	for _, c := range pl.conns[s] {
		n, err := c.Reestablish(p)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}
