package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"prdma/internal/cluster"
	"prdma/internal/sim"
	"prdma/internal/ycsb"
)

// kvLoad drives a partitioned cluster (8 shards × 2 replicas behind 4
// gateways, 12 kernels) from closed-loop clients spread over the gateways.
type kvLoad struct {
	// workers is the engine's worker count; the simulation is identical at
	// any count. It is 1 because on a 2-vCPU host two workers share the
	// CPUs with the GC's workers and their barrier stalls for scheduler time
	// slices: op_host_us_p99 then varied by 35–65 % between runs, against
	// 10–15 % with one worker.
	workers  int
	ops      int // cluster calls per pass, across all clients
	clients  int
	keys     int // a multiple of clients: key k is written only by client k mod clients
	readFrac float64
}

var kvCluster = kvLoad{workers: 1, ops: 25000, clients: 16, keys: 10000, readFrac: 0.5}

const kvObjSize = 64

func (l kvLoad) prepare(seed uint64, scale float64) (func(*tracer) *passResult, error) {
	l.ops = scaled(l.ops, scale)
	pt := newPatterns(seed, kvObjSize)
	return func(tr *tracer) *passResult { return l.pass(seed, pt, tr) }, nil
}

func (l kvLoad) pass(seed uint64, pt *patterns, tr *tracer) *passResult {
	res := &passResult{}
	for i := 0; i < l.clients; i++ {
		res.clients = append(res.clients, newClient(i, tr))
	}
	drv := newClient(l.clients, tr)
	res.clients = append(res.clients, drv)

	h0 := time.Now()
	prm := cluster.DefaultParams()
	prm.Shards, prm.Replicas, prm.Gateways, prm.PoolSize = 8, 2, 4, 4
	prm.Objects, prm.ObjSize, prm.Seed = l.keys, kvObjSize, seed
	c, err := cluster.NewPartitioned(l.workers, prm)
	if err != nil {
		drv.fail(fmt.Errorf("kv_cluster setup: %w", err))
		return res
	}
	h1 := time.Now()
	res.setup = h1.Sub(h0)
	drv.span(drv.newID(), nameSetup, 0, h0, h1, 0, 0)

	// issued is the benchmark's ledger: the highest version issued per key.
	// Readers on other gateways' kernels load it atomically; a version a
	// read returns reached the reader through engine barriers after its
	// writer stored it, so it can never exceed the ledger.
	issued := make([]atomic.Uint32, l.keys)
	for i := 0; i < l.clients; i++ {
		g := i % prm.Gateways
		cl := res.clients[i]
		c.Gateways[g].K.Go(fmt.Sprintf("bench-client-%d", i), func(p *sim.Proc) {
			l.drive(p, seed, c, g, cl, pt, issued)
		})
	}
	t0 := time.Now()
	c.Eng.Run()
	res.busy = time.Since(t0)
	for _, cl := range res.clients {
		if d := cl.end.Duration(); d > res.simElapsed {
			res.simElapsed = d
		}
	}
	res.checkDone()
	if err := c.CheckConsistency(); err != nil {
		drv.fail(fmt.Errorf("kv_cluster consistency: %w", err))
	}

	res.cnt.engine(c.Eng)
	res.cnt.network(c.Net)
	for _, gw := range c.Gateways {
		res.cnt.hosts(gw.Host)
	}
	for _, grp := range c.Groups {
		for _, rep := range grp.Replicas {
			res.cnt.hosts(rep.Host)
			res.cnt[cHandled] += rep.Engine.Handled
		}
	}
	c.Eng.Shutdown()
	return res
}

func (l kvLoad) drive(p *sim.Proc, seed uint64, c *cluster.PCluster, g int, cl *client, pt *patterns, issued []atomic.Uint32) {
	id := uint64(cl.id)
	n := uint64(l.clients)
	rng := sim.NewRand(seed ^ (id+1)*0x9e3779b97f4a7c15)
	zipf := ycsb.NewZipfian(rng.Fork(), int64(l.keys), 0.99)
	own := make([]uint32, l.keys/l.clients) // last version this client wrote, per owned key
	payload := make([]byte, kvObjSize)
	ops := l.ops / l.clients
	if cl.id < l.ops%l.clients {
		ops++
	}
	for i := 0; i < ops; i++ {
		key := uint64(zipf.Scrambled())
		if rng.Float64() < l.readFrac {
			h0, s0 := time.Now(), p.Now()
			data, err := c.GetOn(p, g, key, kvObjSize)
			s1 := p.Now()
			if err != nil {
				cl.fail(err)
				cl.record(nameGet, 0, h0, s0, s1, outFailed)
				continue
			}
			out := uint64(outFailed)
			if ver, err := pt.check(data, key); err != nil {
				cl.fail(fmt.Errorf("kv_cluster get: %w", err))
			} else if hi := issued[key].Load(); ver > hi {
				cl.fail(fmt.Errorf("kv_cluster get key %d: version %d was never issued (ledger %d)", key, ver, hi))
			} else {
				out = uint64(ver)
			}
			cl.record(nameGet, 0, h0, s0, s1, out)
			continue
		}
		key = key/n*n + id // the owned key in this key's block
		ver := own[key/n] + 1
		issued[key].Store(ver)
		pt.fill(payload, key, ver)
		h0, s0 := time.Now(), p.Now()
		err := c.PutOn(p, g, key, ver, payload)
		s1 := p.Now()
		if err != nil {
			cl.fail(err)
			cl.record(namePut, 0, h0, s0, s1, outFailed)
			continue
		}
		own[key/n] = ver
		cl.record(namePut, 0, h0, s0, s1, outWrite|uint64(ver))
	}
	cl.done = true
}
