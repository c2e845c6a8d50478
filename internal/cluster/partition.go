package cluster

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"prdma/internal/sim"
	"prdma/internal/ycsb"
)

// This file is the partitioned load driver: per-gateway client procs on the
// kernels of a NewPartitioned deployment, with every gateway's samples,
// counters and verification state owned by its own kernel and merged
// canonically after the engine drains, so no shared mutable state crosses
// kernels on the data plane.

// PLoadResult aggregates a partitioned load run. Everything in it is a pure
// function of the simulation, so Fingerprint is comparable across worker
// counts.
type PLoadResult struct {
	Samples  []Sample
	End      sim.Time
	Writes   int
	Reads    int
	BadReads int
	Errors   int

	// QueueHWM is the deepest any gateway's open-loop arrival queue got —
	// the boundedness witness for the large-population smoke runs.
	QueueHWM int
	// DistinctClients counts logical clients that issued at least one op
	// (open loop with LogicalClients; else the closed-loop client count).
	DistinctClients int
}

// Throughput returns completed ops per second of simulated time.
func (r *PLoadResult) Throughput() float64 {
	el := r.End.Duration().Seconds()
	if el <= 0 {
		return 0
	}
	return float64(len(r.Samples)) / el
}

// Fingerprint hashes the merged samples and counters; byte-identical runs
// have equal fingerprints.
func (r *PLoadResult) Fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, s := range r.Samples {
		put(uint64(s.At))
		put(uint64(s.Dur))
		put(uint64(s.Shard))
		if s.Write {
			put(1)
		} else {
			put(0)
		}
	}
	put(uint64(r.End))
	put(uint64(r.Writes))
	put(uint64(r.Reads))
	put(uint64(r.BadReads))
	put(uint64(r.Errors))
	put(uint64(r.QueueHWM))
	put(uint64(r.DistinctClients))
	return h.Sum64()
}

// ownerGateway maps a verified key to the gateway whose client owns it:
// snapWriter gives key k to client k mod Clients, and client c drives
// through gateway c mod Gateways.
func ownerGateway(key uint64, clients, gateways int) int {
	return int(key%uint64(clients)) % gateways
}

// pgwRun is one gateway's share of an in-flight load: samples, counters and
// verification state, all owned by that gateway's kernel until the engine
// drains.
type pgwRun struct {
	samples   []Sample
	writes    int
	reads     int
	badReads  int
	errors    int
	queueHWM  int
	clientSet map[int]struct{}
	issuedVer map[uint64]uint32
	end       sim.Time
	done      bool
}

// PLoadRun is an in-flight partitioned load started by StartLoad: the client
// procs are spawned but the caller owns the engine stepping (Run, or
// RunWindows from a crash-injection driver). Done and Collect may only be
// called at a window barrier.
type PLoadRun struct {
	c    *PCluster
	runs []*pgwRun
}

// Done reports whether every gateway's workload has completed.
func (r *PLoadRun) Done() bool {
	for _, run := range r.runs {
		if !run.done {
			return false
		}
	}
	return true
}

// Collect merges the per-gateway results canonically (by completion time,
// then source gateway). Call after the engine drained — or at a barrier past
// Done when auxiliary procs (a failover controller) keep the engine busy.
func (r *PLoadRun) Collect() *PLoadResult {
	res := &PLoadResult{}
	for _, run := range r.runs {
		res.Samples = append(res.Samples, run.samples...)
		res.Writes += run.writes
		res.Reads += run.reads
		res.BadReads += run.badReads
		res.Errors += run.errors
		res.DistinctClients += len(run.clientSet)
		if run.queueHWM > res.QueueHWM {
			res.QueueHWM = run.queueHWM
		}
		if run.end > res.End {
			res.End = run.end
		}
	}
	// Canonical merge: completion time, then source gateway, then that
	// gateway's completion order — the concatenation above is already in
	// (gateway, local) order, so a stable sort on time is exactly that.
	sort.SliceStable(res.Samples, func(i, j int) bool { return res.Samples[i].At < res.Samples[j].At })
	return res
}

// RunLoad drives the partitioned workload: it spawns per-gateway client
// procs, runs the engine to completion, and merges the per-gateway results
// canonically (by completion time, then gateway). Closed loop and the plain
// open-loop mix are supported; YCSB workload mixes stay on the one-kernel
// generator (RunLoadFrom).
//
// In open loop, Load.LogicalClients (when > over the worker count) models a
// client population far larger than the service-worker pool: the aggregate
// Poisson arrival process is the superposition of the population's
// individual processes, each arrival is attributed to one logical client,
// and key choice is offset per client so the footprint spreads the way a
// real population's would.
func (c *PCluster) RunLoad(l Load) (*PLoadResult, error) {
	run, err := c.StartLoad(l)
	if err != nil {
		return nil, err
	}
	c.Eng.Run()
	return run.Collect(), nil
}

// StartLoad validates l and spawns the per-gateway client procs without
// stepping the engine — the crash-injection drivers step windows themselves
// (see RunLoad for the one-shot form and the workload semantics).
func (c *PCluster) StartLoad(l Load) (*PLoadRun, error) {
	if l.Clients <= 0 || l.Ops <= 0 {
		return nil, fmt.Errorf("cluster: load needs Clients>0, Ops>0")
	}
	if l.Workload != 0 {
		return nil, fmt.Errorf("cluster: YCSB workloads run on the one-kernel generator (RunLoadFrom) only")
	}
	G := c.P.Gateways
	if l.KeySpace <= 0 {
		l.KeySpace = int64(c.P.Objects)
	}
	if l.Verify {
		if c.P.ObjSize < 16 {
			return nil, fmt.Errorf("cluster: Verify needs ObjSize ≥ 16")
		}
		if int64(l.Clients) < l.KeySpace {
			l.KeySpace -= l.KeySpace % int64(l.Clients)
		}
	}
	if l.Theta == 0 {
		l.Theta = 0.99
	}

	runs := make([]*pgwRun, G)

	for g := 0; g < G; g++ {
		g := g
		gw := c.Gateways[g]
		run := &pgwRun{issuedVer: make(map[uint64]uint32), clientSet: make(map[int]struct{})}
		runs[g] = run
		nextVer := make(map[uint64]uint32)

		// op runs one operation on a proc of this gateway's kernel. Reads of
		// keys owned by another gateway's clients check payload structure
		// only: the issued-version history lives with the owner.
		buf := make(map[int][]byte)
		op := func(wp *sim.Proc, client int, write bool, key uint64, arrivedAt sim.Time) {
			shard := c.Ring.Shard(key)
			if write {
				ver := uint32(1)
				if l.Verify {
					key = snapWriter(key, client, l.Clients, l.KeySpace)
					shard = c.Ring.Shard(key)
					ver = nextVer[key] + 1
					nextVer[key] = ver
					run.issuedVer[key] = ver
				}
				payload := buf[client]
				if payload == nil {
					payload = make([]byte, c.P.ObjSize)
					buf[client] = payload
				}
				if l.Verify {
					fill(payload, key, ver)
				}
				if err := c.PutOn(wp, g, key, ver, payload); err != nil {
					run.errors++
					return
				}
				run.writes++
			} else {
				data, err := c.GetOn(wp, g, key, c.P.ObjSize)
				if err != nil {
					run.errors++
					return
				}
				run.reads++
				if l.Verify {
					maxVer := uint32(math.MaxUint32)
					if ownerGateway(key, l.Clients, G) == g {
						maxVer = run.issuedVer[key]
					}
					if err := checkFill(data, key, maxVer); err != nil {
						run.badReads++
					}
				}
			}
			now := wp.Now()
			run.samples = append(run.samples, Sample{At: now, Dur: now.Sub(arrivedAt), Shard: shard, Write: write})
		}

		wg := sim.NewWaitGroup(gw.K)
		if l.OpenLoop {
			if l.Rate <= 0 {
				return nil, fmt.Errorf("cluster: open loop needs Rate > 0")
			}
			population := l.LogicalClients
			if population < l.Clients {
				population = l.Clients
			}
			popG := population/G + 1 // this gateway's logical clients: g, g+G, ...
			ops := l.Ops / G
			if g < l.Ops%G {
				ops++
			}
			workers := l.Clients / G
			if g < l.Clients%G {
				workers++
			}
			if workers < 1 {
				workers = 1
			}
			type arrival struct {
				at     sim.Time
				client int
				key    uint64
				write  bool
				stop   bool
			}
			queue := sim.NewChan[arrival](gw.K)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				gw.K.Go(fmt.Sprintf("gw%d-worker", g), func(wp *sim.Proc) {
					defer wg.Done()
					for {
						a := queue.Pop(wp)
						if a.stop {
							return
						}
						op(wp, a.client, a.write, a.key, a.at)
					}
				})
			}
			wg.Add(1)
			gw.K.Go(fmt.Sprintf("gw%d-arrivals", g), func(ap *sim.Proc) {
				defer wg.Done()
				rng := sim.NewRand(l.Seed ^ (uint64(g)+1)*0xa11a)
				zipf := ycsb.NewZipfian(rng, l.KeySpace, l.Theta)
				for i := 0; i < ops; i++ {
					gap := time.Duration(rng.Exp(1e9 / (l.Rate / float64(G))))
					ap.Sleep(gap)
					cid := g + G*rng.Intn(popG)
					run.clientSet[cid] = struct{}{}
					// Offset the zipfian draw per logical client so a large
					// population touches a spread of keys, not one hot set.
					key := (uint64(zipf.Scrambled()) + uint64(cid)*7919) % uint64(l.KeySpace)
					queue.Push(arrival{
						at: ap.Now(), client: cid, key: key,
						write: rng.Float64() >= l.ReadFrac,
					})
					if d := queue.Len(); d > run.queueHWM {
						run.queueHWM = d
					}
				}
				for w := 0; w < workers; w++ {
					queue.Push(arrival{stop: true})
				}
			})
		} else {
			// Closed loop: global client ids c with c mod G == g live here,
			// each with a static ops quota (no cross-kernel shared counter).
			for client := g; client < l.Clients; client += G {
				wg.Add(1)
				client := client
				ops := l.Ops / l.Clients
				if client < l.Ops%l.Clients {
					ops++
				}
				run.clientSet[client] = struct{}{}
				gw.K.Go(fmt.Sprintf("gw%d-client%d", g, client), func(wp *sim.Proc) {
					defer wg.Done()
					rng := sim.NewRand(l.Seed ^ (uint64(client)+1)*0x9e3779b97f4a7c15)
					zipf := ycsb.NewZipfian(rng, l.KeySpace, l.Theta)
					for i := 0; i < ops; i++ {
						op(wp, client, rng.Float64() >= l.ReadFrac, uint64(zipf.Scrambled()), wp.Now())
					}
				})
			}
		}
		gw.K.Go(fmt.Sprintf("gw%d-join", g), func(p *sim.Proc) {
			wg.Wait(p)
			run.end = p.Now()
			run.done = true
		})
	}

	return &PLoadRun{c: c, runs: runs}, nil
}
