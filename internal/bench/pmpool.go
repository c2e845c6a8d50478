package bench

import (
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
	"prdma/internal/stats"
)

// PMPoolFigures drives the remote persistent-memory pool (internal/pmpool)
// two ways. First a closed-loop allocation grid: for each pool-server ×
// client-host cell, every client cycles alloc → durable write → free
// through the striped pool and the cell reports alloc/free throughput,
// write bandwidth, and alloc latency percentiles. Then the disaggregated
// shuffle: PageRank with every map→reduce exchange staged through the pool,
// asserted bit-identical against the in-memory baseline.
func (o Options) PMPoolFigures() []Table {
	return []Table{o.pmpoolGridTable(), o.pmpoolShuffleTable()}
}

// pmpoolCell is one completed grid cell.
type pmpoolCell struct {
	servers, clients int
	cycles           int64
	writeBytes       int64
	elapsed          time.Duration
	allocLat         *stats.Latency
	leaked           int
}

// pmpoolDeploy builds servers pool nodes, each serving with workers rpc
// workers, and clients client hosts, each with its own striping Pool front
// end over kind's durable RPC, on a fresh kernel.
func pmpoolDeploy(k *sim.Kernel, servers, clients int, kind rpc.Kind, workers int, seed uint64) ([]*pmpool.Server, []*pmpool.Pool) {
	net := fabric.New(k, fabric.DefaultParams(), seed|1)
	rcfg := rpc.DefaultConfig()
	rcfg.Workers = workers
	rcfg.LogBytes = 128 << 10
	scfg := pmpool.DefaultServerConfig()
	scfg.PoolBytes = 512 * 4096
	srvs := make([]*pmpool.Server, servers)
	for i := range srvs {
		h := host.New(k, fmt.Sprintf("pool%d", i), net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
		srvs[i] = pmpool.NewServer(h, rcfg, scfg)
	}
	pools := make([]*pmpool.Pool, clients)
	for c := range pools {
		h := host.New(k, fmt.Sprintf("cli%d", c), net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
		pcfg := pmpool.DefaultPoolConfig(uint64(c + 1))
		pcfg.Kind = kind
		pcfg.ConnsPerServer = 2
		pcfg.LeaseTTL = scfg.LeaseTTL
		pools[c] = pmpool.NewPool(h, srvs, rcfg, pcfg)
	}
	return srvs, pools
}

// pmpoolStop retires every renewer and reclaimer so k.Run can drain.
func pmpoolStop(srvs []*pmpool.Server, pools []*pmpool.Pool) {
	for _, pl := range pools {
		pl.Stop()
	}
	for _, s := range srvs {
		s.Stop()
	}
}

func (o Options) pmpoolGridCell(servers, clients int) pmpoolCell {
	cell := pmpoolCell{
		servers: servers, clients: clients,
		allocLat: stats.NewLatency(o.Ops),
	}
	perClient := o.Ops / (10 * clients)
	if perClient < 20 {
		perClient = 20
	}
	sizes := []int64{64, 256, 1024, 3000}

	k := sim.New()
	srvs, pools := pmpoolDeploy(k, servers, clients, rpc.WFlushRPC, rpc.DefaultConfig().Workers, o.Seed)
	var start, end sim.Time
	wg := sim.NewWaitGroup(k)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		c := c
		pool := pools[c]
		k.Go(fmt.Sprintf("pmpool-bench-%d", c), func(p *sim.Proc) {
			defer wg.Done()
			buf := make([]byte, sizes[len(sizes)-1])
			for i := range buf {
				buf[i] = byte(i*31 + c)
			}
			for i := 0; i < perClient; i++ {
				size := sizes[(i+c)%len(sizes)]
				t0 := p.Now()
				h, err := pool.Alloc(p, size)
				if err != nil {
					panic(fmt.Sprintf("pmpool bench: alloc: %v", err))
				}
				cell.allocLat.Add(p.Now().Sub(t0))
				if err := pool.Write(p, h, 0, buf[:size]); err != nil {
					panic(fmt.Sprintf("pmpool bench: write: %v", err))
				}
				if err := pool.Free(p, h); err != nil {
					panic(fmt.Sprintf("pmpool bench: free: %v", err))
				}
				cell.cycles++
				cell.writeBytes += size
			}
		})
	}
	k.Go("pmpool-bench-main", func(p *sim.Proc) {
		start = p.Now()
		wg.Wait(p)
		end = p.Now()
		pmpoolStop(srvs, pools)
	})
	k.Run()
	for _, s := range srvs {
		cell.leaked += s.Live()
	}
	k.Shutdown()
	cell.elapsed = end.Sub(start)
	return cell
}

func (o Options) pmpoolGridTable() Table {
	grid := []struct{ servers, clients int }{
		{1, 1}, {1, 4}, {2, 4}, {4, 4}, {4, 8},
	}
	cells := mapCells(o.runner(), len(grid), func(i int) pmpoolCell {
		return o.pmpoolGridCell(grid[i].servers, grid[i].clients)
	})
	t := Table{
		Title:  "Remote PM pool: closed-loop alloc+write+free grid (striped by consistent hash, durable-on-return writes)",
		Header: []string{"servers", "clients", "cycles", "alloc KOPS", "free KOPS", "write GB/s", "alloc p50 (us)", "alloc p99 (us)", "leaked"},
		Notes:  "each cycle allocs a rotating size class, lands one durable write, and frees; leaked must be 0 — every handle was freed with an ack",
	}
	for _, c := range cells {
		kops := stats.Throughput{Ops: int(c.cycles), Elapsed: c.elapsed}.KOPS()
		gbs := float64(c.writeBytes) / c.elapsed.Seconds() / 1e9
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c.servers),
			fmt.Sprintf("%d", c.clients),
			fmt.Sprintf("%d", c.cycles),
			fmt.Sprintf("%.1f", kops),
			fmt.Sprintf("%.1f", kops),
			fmt.Sprintf("%.3f", gbs),
			fmtUS(c.allocLat.Percentile(50)),
			fmtUS(c.allocLat.Percentile(99)),
			fmt.Sprintf("%d", c.leaked),
		})
	}
	return t
}

// pmpoolShuffleRun is one disaggregated shuffle through a pool deployment.
type pmpoolShuffleRun struct {
	ranks, local []float64 // through the pool, and the in-memory baseline
	stats        pmpool.ShuffleStats
	elapsed      time.Duration
	leaked       int
}

// pmpoolShuffle deploys a pool (pmpoolDeploy) and runs the shuffle PageRank
// of g through it, every block capped at one pool slab, then stops the pool,
// counts the blocks it leaked and runs the in-memory baseline. An error is
// the shuffle's.
func pmpoolShuffle(g *graph.Graph, cfg pmpool.ShuffleConfig, servers, clients int, kind rpc.Kind, workers int, seed uint64) (*pmpoolShuffleRun, error) {
	cfg.MaxChunk = 4096 // every block must fit one pool slab
	k := sim.New()
	defer k.Shutdown()
	srvs, pools := pmpoolDeploy(k, servers, clients, kind, workers, seed)
	r := &pmpoolShuffleRun{}
	var err error
	var start, end sim.Time
	k.Go("pmpool-shuffle", func(p *sim.Proc) {
		start = p.Now()
		r.ranks, r.stats, err = pmpool.ShufflePageRank(p, pools, g, cfg)
		end = p.Now()
		pmpoolStop(srvs, pools)
	})
	k.Run()
	if err != nil {
		return nil, fmt.Errorf("pmpool shuffle: %w", err)
	}
	for _, s := range srvs {
		r.leaked += s.Live()
	}
	r.elapsed = end.Sub(start)
	r.local = pmpool.LocalShufflePageRank(g, cfg)
	return r, nil
}

func (o Options) pmpoolShuffleTable() Table {
	ds := graph.Dataset{
		Name:  graph.WordAssociation.Name,
		Nodes: graph.WordAssociation.Nodes / o.GraphScale,
		Edges: graph.WordAssociation.Edges / o.GraphScale,
	}
	cfg := pmpool.DefaultShuffleConfig()
	cfg.Iterations = o.PageRankIters
	r, err := pmpoolShuffle(graph.Generate(ds, o.Seed), cfg, 2, 2, rpc.WFlushRPC, rpc.DefaultConfig().Workers, o.Seed)
	if err != nil {
		panic(err)
	}
	identical := len(r.ranks) == len(r.local)
	var maxDelta float64
	for i := range r.local {
		if i >= len(r.ranks) {
			break
		}
		if math.Float64bits(r.ranks[i]) != math.Float64bits(r.local[i]) {
			identical = false
		}
		if d := math.Abs(r.ranks[i] - r.local[i]); d > maxDelta {
			maxDelta = d
		}
	}
	equal := "bit-identical to local baseline"
	if !identical {
		equal = fmt.Sprintf("DIVERGED (max |delta| %.3g)", maxDelta)
	}
	t := Table{
		Title: fmt.Sprintf("Disaggregated shuffle: PageRank %s/%d, %d iters, %dx%d map/reduce through 2 pool servers",
			ds.Name, o.GraphScale, cfg.Iterations, cfg.Maps, cfg.Reducers),
		Header: []string{"metric", "value"},
		Notes:  "the only channel between map and reduce is remote PM; identical emit/reduce code on both paths makes the float accumulation order — and so the ranks — bit-identical",
	}
	t.Rows = [][]string{
		{"shuffle blocks", fmt.Sprintf("%d", r.stats.Blocks)},
		{"shuffle bytes", fmt.Sprintf("%d", r.stats.Bytes)},
		{"wall (us)", fmtUS(r.elapsed)},
		{"blocks leaked", fmt.Sprintf("%d", r.leaked)},
		{"ranks", equal},
	}
	return t
}
