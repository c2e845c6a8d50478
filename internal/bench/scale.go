package bench

import (
	"fmt"
	"runtime"
	"time"

	kv "prdma/internal/cluster"
)

// This file is the PR 7 parallel-kernel scaling driver: it runs the
// partitioned KV cluster at a ladder of worker counts, checks that every
// rung produces the identical simulation (the engine's determinism
// contract), and reports wall time, events/second and speedup versus one
// worker. Worker threads are pure execution resources — the partitioning is
// fixed by the topology — so any fingerprint divergence is a bug, not a
// tuning artifact.

// ScalePoint is one rung of the worker ladder.
type ScalePoint struct {
	Workers      int     `json:"workers"`
	WallMS       float64 `json:"wall_ms"`
	Events       uint64  `json:"events"`
	Crossed      uint64  `json:"crossed"`
	EventsPerSec float64 `json:"events_per_sec"`
	Speedup      float64 `json:"speedup"`
	Fingerprint  string  `json:"fingerprint"`
	// Coordination counters (deterministic at any worker count): total
	// conservative windows, idle kernel dispatches skipped, windows that
	// entered the worker barrier, and the cross-transfer slab hit rate
	// (percent of crossings served from a pooled envelope).
	Windows    uint64  `json:"windows"`
	IdleSkips  uint64  `json:"idle_skips"`
	Barriers   uint64  `json:"barriers"`
	SlabHitPct float64 `json:"slab_hit_pct"`
}

// ScaleResult is the scaling figure plus its determinism verdict.
type ScaleResult struct {
	Shards        int          `json:"shards"`
	Replicas      int          `json:"replicas"`
	Gateways      int          `json:"gateways"`
	Partitions    int          `json:"partitions"`
	Clients       int          `json:"clients"`
	Ops           int          `json:"ops"`
	MaxProcs      int          `json:"maxprocs"`
	Points        []ScalePoint `json:"points"`
	Deterministic bool         `json:"deterministic"`
}

// scaleParams is the fixed 8-shard topology of the scaling figure.
func scaleParams(o Options) kv.Params {
	p := kv.DefaultParams()
	p.Shards = 8
	p.Replicas = 2
	p.Gateways = 4
	p.PoolSize = 4
	p.Objects = o.Objects
	p.ObjSize = 64
	p.Seed = o.Seed
	return p
}

// ParallelScale runs the scaling ladder. Every rung replays the same
// workload on a fresh deployment; only the worker count changes.
func (o Options) ParallelScale(workerCounts []int) (*ScaleResult, error) {
	p := scaleParams(o)
	load := kv.Load{Clients: 16, Ops: o.Ops, ReadFrac: 0.5, Verify: true, Seed: o.Seed}
	res := &ScaleResult{
		Shards: p.Shards, Replicas: p.Replicas, Gateways: p.Gateways,
		Partitions: p.Gateways + p.Shards,
		Clients:    load.Clients, Ops: load.Ops,
		MaxProcs:      runtime.GOMAXPROCS(0),
		Deterministic: true,
	}
	for _, w := range workerCounts {
		c, err := kv.NewPartitioned(w, p)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		lr, err := c.RunLoad(load)
		wall := time.Since(start)
		if err != nil {
			c.Eng.Shutdown()
			return nil, err
		}
		if lr.Errors != 0 || lr.BadReads != 0 {
			c.Eng.Shutdown()
			return nil, fmt.Errorf("bench: scale workers=%d: errors=%d badReads=%d", w, lr.Errors, lr.BadReads)
		}
		cerr := c.CheckConsistency()
		windows, idleSkips, barriers, slabHits, slabMisses := c.CoordStats()
		// Reap the rung's deployment before the next one: each parked-proc
		// set otherwise survives the ladder (~100 MB per deployment).
		c.Eng.Shutdown()
		if cerr != nil {
			return nil, fmt.Errorf("bench: scale workers=%d: %w", w, cerr)
		}
		pt := ScalePoint{
			Workers:     w,
			WallMS:      float64(wall.Microseconds()) / 1e3,
			Events:      c.Eng.Fired(),
			Crossed:     c.Eng.Crossed(),
			Fingerprint: fmt.Sprintf("%016x", lr.Fingerprint()),
			Windows:     windows,
			IdleSkips:   idleSkips,
			Barriers:    barriers,
		}
		if total := slabHits + slabMisses; total > 0 {
			pt.SlabHitPct = 100 * float64(slabHits) / float64(total)
		}
		if wall > 0 {
			pt.EventsPerSec = float64(pt.Events) / wall.Seconds()
		}
		if len(res.Points) > 0 {
			base := res.Points[0]
			if pt.WallMS > 0 {
				pt.Speedup = base.WallMS / pt.WallMS
			}
			if pt.Fingerprint != base.Fingerprint || pt.Events != base.Events ||
				pt.Windows != base.Windows || pt.IdleSkips != base.IdleSkips || pt.Barriers != base.Barriers {
				res.Deterministic = false
			}
		} else {
			pt.Speedup = 1
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Table renders the scaling figure.
func (r *ScaleResult) Table() Table {
	t := Table{
		Title: fmt.Sprintf("parallel kernel scaling (%d shards x %d replicas, %d gateways, %d partitions, GOMAXPROCS=%d)",
			r.Shards, r.Replicas, r.Gateways, r.Partitions, r.MaxProcs),
		Header: []string{"workers", "wall_ms", "events", "crossed", "events/sec", "speedup", "windows", "skips", "barriers", "slab%", "fingerprint"},
		Notes: "identical fingerprints across workers = the determinism contract holds; " +
			"speedup needs real cores (GOMAXPROCS>1) to materialize; " +
			"windows/skips/barriers/slab are worker-count-invariant coordination counters",
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Workers),
			fmt.Sprintf("%.2f", p.WallMS),
			fmt.Sprintf("%d", p.Events),
			fmt.Sprintf("%d", p.Crossed),
			fmt.Sprintf("%.0f", p.EventsPerSec),
			fmt.Sprintf("%.2fx", p.Speedup),
			fmt.Sprintf("%d", p.Windows),
			fmt.Sprintf("%d", p.IdleSkips),
			fmt.Sprintf("%d", p.Barriers),
			fmt.Sprintf("%.1f", p.SlabHitPct),
			p.Fingerprint,
		})
	}
	return t
}

// SmokeResult is the large-population open-loop smoke run.
type SmokeResult struct {
	Workers         int     `json:"workers"`
	LogicalClients  int     `json:"logical_clients"`
	DistinctClients int     `json:"distinct_clients"`
	Ops             int     `json:"ops"`
	Completed       int     `json:"completed"`
	Errors          int     `json:"errors"`
	QueueHWM        int     `json:"queue_hwm"`
	SimMS           float64 `json:"sim_ms"`
	WallMS          float64 `json:"wall_ms"`
	ThroughputOps   float64 `json:"throughput_ops_per_sec"`
	HeapMB          float64 `json:"heap_mb"`
	Fingerprint     string  `json:"fingerprint"`
	OK              bool    `json:"ok"`
}

// MillionClientSmoke drives the partitioned cluster open-loop with a
// million-client logical population over a reduced horizon (o.Ops arrivals)
// and asserts the stats invariants: every arrival completes, no errors, the
// arrival queues stay bounded by the horizon, and memory stays flat because
// the population is modelled by attribution, not by a million procs.
func (o Options) MillionClientSmoke(workers, logicalClients int) (*SmokeResult, error) {
	if logicalClients <= 0 {
		logicalClients = 1_000_000
	}
	p := scaleParams(o)
	load := kv.Load{
		Clients: 64, Ops: o.Ops, ReadFrac: 0.5,
		OpenLoop: true, Rate: 2e6, LogicalClients: logicalClients,
		Seed: o.Seed,
	}
	c, err := kv.NewPartitioned(workers, p)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	lr, err := c.RunLoad(load)
	wall := time.Since(start)
	if err != nil {
		c.Eng.Shutdown()
		return nil, err
	}
	cerr := c.CheckConsistency()
	// Reap the deployment first: the heap figure must report what a finished
	// deployment retains, which is nothing once its parked procs are gone.
	c.Eng.Shutdown()
	var ms runtime.MemStats
	runtime.GC() // report retained heap, not accumulated garbage
	runtime.ReadMemStats(&ms)
	res := &SmokeResult{
		Workers:         workers,
		LogicalClients:  logicalClients,
		DistinctClients: lr.DistinctClients,
		Ops:             load.Ops,
		Completed:       len(lr.Samples),
		Errors:          lr.Errors,
		QueueHWM:        lr.QueueHWM,
		SimMS:           lr.End.Duration().Seconds() * 1e3,
		WallMS:          float64(wall.Microseconds()) / 1e3,
		ThroughputOps:   lr.Throughput(),
		HeapMB:          float64(ms.HeapAlloc) / (1 << 20),
		Fingerprint:     fmt.Sprintf("%016x", lr.Fingerprint()),
	}
	res.OK = res.Completed == load.Ops && res.Errors == 0 &&
		res.QueueHWM > 0 && res.QueueHWM <= load.Ops &&
		res.DistinctClients > 0
	if cerr != nil {
		return res, fmt.Errorf("bench: smoke consistency: %w", cerr)
	}
	return res, nil
}

// Table renders the smoke result.
func (r *SmokeResult) Table() Table {
	status := "FAIL"
	if r.OK {
		status = "ok"
	}
	return Table{
		Title:  fmt.Sprintf("open-loop population smoke (%d logical clients, workers=%d)", r.LogicalClients, r.Workers),
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"arrivals completed", fmt.Sprintf("%d/%d", r.Completed, r.Ops)},
			{"distinct logical clients", fmt.Sprintf("%d", r.DistinctClients)},
			{"errors", fmt.Sprintf("%d", r.Errors)},
			{"arrival-queue high water", fmt.Sprintf("%d", r.QueueHWM)},
			{"simulated time", fmt.Sprintf("%.3f ms", r.SimMS)},
			{"wall time", fmt.Sprintf("%.1f ms", r.WallMS)},
			{"throughput", fmt.Sprintf("%.0f ops/s", r.ThroughputOps)},
			{"heap", fmt.Sprintf("%.1f MB", r.HeapMB)},
			{"invariants", status},
		},
		Notes: "population is modelled by arrival attribution (Poisson superposition); " +
			"memory scales with workers and keyspace, not population",
	}
}
