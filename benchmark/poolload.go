package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"prdma/internal/fabric"
	"prdma/internal/graph"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/pmpool"
	"prdma/internal/rnic"
	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// poolLoad runs closed-loop alloc→write→read→free cycles from several
// client pools against the pool servers, then a disaggregated-shuffle
// PageRank over the same deployment.
type poolLoad struct {
	cycles  int // per pass, across all clients
	clients int
	servers int
	iters   int // shuffle PageRank iterations
}

var poolShuffle = poolLoad{cycles: 6000, clients: 4, servers: 2, iters: 10}

// poolSizes are the allocation sizes the cycles draw from.
var poolSizes = []int{64, 256, 1024, 3000}

func (l poolLoad) prepare(seed uint64, scale float64) (func(*tracer) *passResult, error) {
	l.cycles = scaled(l.cycles, scale)
	ds := graph.Enron
	ds.Nodes, ds.Edges = scaled(ds.Nodes, scale), scaled(ds.Edges, scale)
	g := graph.Generate(ds, seed)
	cfg := pmpool.DefaultShuffleConfig()
	cfg.Iterations = l.iters
	cfg.MaxChunk = 4096 // every block fits one pool slab
	want := pmpool.LocalShufflePageRank(g, cfg)
	pt := newPatterns(seed, poolSizes[len(poolSizes)-1])
	return func(tr *tracer) *passResult { return l.pass(seed, g, cfg, want, pt, tr) }, nil
}

func (l poolLoad) pass(seed uint64, g *graph.Graph, cfg pmpool.ShuffleConfig, want []float64, pt *patterns, tr *tracer) *passResult {
	res := &passResult{}
	for i := 0; i < l.clients; i++ {
		res.clients = append(res.clients, newClient(i, tr))
	}
	drv := newClient(l.clients, tr)
	res.clients = append(res.clients, drv)

	h0 := time.Now()
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), seed|1)
	rcfg := rpc.DefaultConfig()
	rcfg.LogBytes = 128 << 10
	scfg := pmpool.DefaultServerConfig()
	scfg.PoolBytes = 2048 * scfg.SlabBytes
	var hosts []*host.Host
	newHost := func(name string) *host.Host {
		h := host.New(k, name, net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
		hosts = append(hosts, h)
		return h
	}
	srvs := make([]*pmpool.Server, l.servers)
	for i := range srvs {
		srvs[i] = pmpool.NewServer(newHost(fmt.Sprintf("pool%d", i)), rcfg, scfg)
	}
	pools := make([]*pmpool.Pool, l.clients)
	for i := range pools {
		pcfg := pmpool.DefaultPoolConfig(uint64(i + 1))
		pcfg.ConnsPerServer = 2
		pcfg.LeaseTTL = scfg.LeaseTTL
		pools[i] = pmpool.NewPool(newHost(fmt.Sprintf("cli%d", i)), srvs, rcfg, pcfg)
	}
	h1 := time.Now()
	res.setup = h1.Sub(h0)
	drv.span(drv.newID(), nameSetup, 0, h0, h1, 0, 0)

	wg := sim.NewWaitGroup(k)
	wg.Add(l.clients)
	for i, pl := range pools {
		cl := res.clients[i]
		k.Go(fmt.Sprintf("bench-client-%d", i), func(p *sim.Proc) {
			defer wg.Done()
			l.cycle(p, seed, pl, cl, pt)
		})
	}
	k.Go("bench-shuffle", func(p *sim.Proc) {
		wg.Wait(p)
		before := poolCalls(pools)
		h0, s0 := time.Now(), p.Now()
		ranks, _, err := pmpool.ShufflePageRank(p, pools, g, cfg)
		h1, s1 := time.Now(), p.Now()
		res.shuffleHost = h1.Sub(h0)
		res.extraOps = poolCalls(pools) - before
		out := uint64(outFailed)
		if err == nil {
			err = pmpool.CompareRanks(ranks, want)
		}
		if err != nil {
			drv.fail(fmt.Errorf("pmpool shuffle: %w", err))
		} else {
			out = fnvOffset
			for _, r := range ranks {
				out = fnvAdd(out, math.Float64bits(r))
			}
		}
		drv.fold(s1.Sub(s0), out)
		drv.span(drv.newID(), nameShuffle, 0, h0, h1, s0, s1)
		drv.end, drv.done = s1, true
		for _, pl := range pools {
			pl.Stop()
		}
		for _, s := range srvs {
			s.Stop()
		}
	})
	t0 := time.Now()
	k.Run()
	res.busy = time.Since(t0)
	res.simElapsed = drv.end.Duration()
	res.checkDone()
	if !drv.done {
		drv.fail(fmt.Errorf("pmpool shuffle: simulation drained before the shuffle finished"))
	}

	for _, s := range srvs {
		if n := s.Live(); n > 0 {
			// Each leaked block is one failure.
			drv.fail(fmt.Errorf("pmpool: %s holds %d live blocks after every block was freed", s.H.Name, n))
			drv.failed += int64(n) - 1
		}
		res.cnt[cLeaked] += int64(s.Live())
		res.cnt[cHandled] += s.RPC.Handled
	}
	res.cnt[cEvents] = int64(k.Fired())
	res.cnt.network(net)
	res.cnt.hosts(hosts...)
	for _, pl := range pools {
		res.cnt.logs(pl.Logs()...)
		res.cnt[cPoolRetries] += pl.Retries
	}
	k.Shutdown()
	return res
}

// poolCalls totals the pool calls the pools have completed.
func poolCalls(pools []*pmpool.Pool) int64 {
	var n int64
	for _, pl := range pools {
		n += pl.Allocs + pl.Writes + pl.Reads + pl.Frees
	}
	return n
}

// cycle is one client's closed loop: each cycle allocates a block of a
// random size, writes a self-describing payload, reads it back, checks it
// and frees the block.
func (l poolLoad) cycle(p *sim.Proc, seed uint64, pl *pmpool.Pool, cl *client, pt *patterns) {
	rng := sim.NewRand(seed ^ (uint64(cl.id)+1)*0x9e3779b97f4a7c15)
	buf := make([]byte, poolSizes[len(poolSizes)-1])
	n := l.cycles / l.clients
	if cl.id < l.cycles%l.clients {
		n++
	}
	for i := 0; i < n; i++ {
		size := poolSizes[rng.Intn(len(poolSizes))]
		cyc := cl.newID()
		hc, sc := time.Now(), p.Now()
		h, err := pl.Alloc(p, int64(size))
		if err != nil {
			cl.fail(fmt.Errorf("pmpool alloc %d B: %w", size, err))
			cl.record(nameAlloc, cyc, hc, sc, p.Now(), outFailed)
			continue
		}
		cl.record(nameAlloc, cyc, hc, sc, p.Now(), uint64(h.Addr))

		data := buf[:size]
		pt.fill(data, h.ID, uint32(i+1))
		h0, s0 := time.Now(), p.Now()
		err = pl.Write(p, h, 0, data)
		cl.record(nameWrite, cyc, h0, s0, p.Now(), okOutcome(cl, err, "write"))

		h0, s0 = time.Now(), p.Now()
		got, err := pl.Read(p, h, 0, size)
		if err == nil && !bytes.Equal(got, data) {
			err = fmt.Errorf("block %#x: read-back differs from the acked write", h.ID)
		}
		cl.record(nameRead, cyc, h0, s0, p.Now(), okOutcome(cl, err, "read"))

		h0, s0 = time.Now(), p.Now()
		err = pl.Free(p, h)
		cl.record(nameFree, cyc, h0, s0, p.Now(), okOutcome(cl, err, "free"))
		cl.span(cyc, nameCycle, 0, hc, time.Now(), sc, p.Now())
	}
	cl.done = true
}

// okOutcome counts err as a failure and returns the outcome to fingerprint.
func okOutcome(cl *client, err error, op string) uint64 {
	if err != nil {
		cl.fail(fmt.Errorf("pmpool %s: %w", op, err))
		return outFailed
	}
	return 1
}
