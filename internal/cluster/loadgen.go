package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"prdma/internal/rpc"
	"prdma/internal/sim"
	"prdma/internal/ycsb"
)

// This file is the cluster load generator: per-gateway client procs on the
// gateways' kernels, with every gateway's samples, counters and verification
// state owned by its own kernel and merged canonically after the run, so no
// shared mutable state crosses kernels on the data plane.

// Load configures the cluster load generator.
type Load struct {
	// Clients is the number of simulated client procs (closed loop) or
	// service workers (open loop). Tens of thousands are fine: procs are
	// cheap goroutine-backed coroutines.
	Clients int
	// Ops is the total operation count across all clients: each closed-loop
	// client gets a static quota of Ops/Clients (YCSB: generator draws).
	Ops int
	// ReadFrac is the read share of the mix (0..1).
	ReadFrac float64
	// KeySpace is the zipfian key population; Theta its skew (0.99 = YCSB).
	KeySpace int64
	Theta    float64
	// Workload, when set, drives the closed loop from a YCSB core workload
	// (ycsb.A..ycsb.F) instead of the plain ReadFrac mix: updates, inserts,
	// scans (up to maxScan keys) and read-modify-write pairs per the
	// workload's own ratios. Insert-grown keys wrap into KeySpace so slots
	// stay injective for the verification payloads. Open loop does not
	// support it.
	Workload ycsb.Workload
	// OpenLoop switches from closed-loop (each client issues the next op
	// when the previous completes) to open-loop (ops arrive on a Poisson
	// schedule at Rate ops/sec and queue for a worker; latency then
	// includes queueing delay, the paper's Fig. 8 methodology).
	OpenLoop bool
	Rate     float64
	// LogicalClients, in an open-loop run, sizes the modelled client
	// population independently of the Clients worker pool: arrivals are
	// attributed to logical clients drawn from this population (Poisson
	// superposition). Zero means Clients.
	LogicalClients int
	// Verify embeds self-describing (key, version) payloads in every write
	// and checks every read against the acknowledged history. Requires
	// ObjSize ≥ 16 and snaps write keys to one writer per key so replicas
	// converge byte-identically regardless of apply interleaving.
	Verify bool
	// Seed drives all workload randomness (forked per client).
	Seed uint64
}

// maxScan bounds workload E's scan lengths.
const maxScan = 8

// Sample is one completed operation (a whole scan for workload E).
type Sample struct {
	At    sim.Time // completion time
	Dur   time.Duration
	Shard int
	Write bool
}

// LoadResult aggregates a load run. Everything in it is a pure function of
// the simulation, so Fingerprint is comparable across worker counts. The
// load starts at time 0.
type LoadResult struct {
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
func (r *LoadResult) Throughput() float64 {
	el := r.End.Duration().Seconds()
	if el <= 0 {
		return 0
	}
	return float64(len(r.Samples)) / el
}

// Fingerprint hashes the merged samples and counters; byte-identical runs
// have equal fingerprints.
func (r *LoadResult) Fingerprint() uint64 {
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

// fill writes the self-describing payload for (key, ver) into buf:
// key at [0,8), ver at [8,12), then a (key,ver)-derived pattern from 16.
func fill(buf []byte, key uint64, ver uint32) {
	binary.LittleEndian.PutUint64(buf[0:], key)
	binary.LittleEndian.PutUint32(buf[8:], ver)
	binary.LittleEndian.PutUint32(buf[12:], 0)
	for j := 16; j < len(buf); j++ {
		buf[j] = byte(17*key + 31*uint64(ver) + uint64(j))
	}
}

// checkFill verifies buf is a well-formed payload for key with a version
// no later than maxVer. All-zero buffers (never-written keys) pass.
func checkFill(buf []byte, key uint64, maxVer uint32) error {
	zero := true
	for _, b := range buf {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		return nil
	}
	gotKey := binary.LittleEndian.Uint64(buf[0:])
	ver := binary.LittleEndian.Uint32(buf[8:])
	if gotKey != key {
		return fmt.Errorf("payload for key %d carries key %d", key, gotKey)
	}
	if ver == 0 || ver > maxVer {
		return fmt.Errorf("key %d: version %d outside issued range [1,%d]", key, ver, maxVer)
	}
	for j := 16; j < len(buf); j++ {
		if buf[j] != byte(17*key+31*uint64(ver)+uint64(j)) {
			return fmt.Errorf("key %d ver %d: pattern corrupt at byte %d", key, ver, j)
		}
	}
	return nil
}

// snapWriter maps a zipfian key to the single key in its block owned by
// this client, preserving popularity classes while guaranteeing one writer
// per key (required for byte-identical replica convergence: concurrent
// same-key writers would race apply order across replicas).
func snapWriter(zip uint64, client, clients int, keySpace int64) uint64 {
	k := (zip/uint64(clients))*uint64(clients) + uint64(client)
	if k >= uint64(keySpace) {
		k -= uint64(clients)
	}
	return k
}

// ownerGateway maps a verified key to the gateway whose client owns it:
// snapWriter gives key k to client k mod Clients, and client c drives
// through gateway c mod Gateways.
func ownerGateway(key uint64, clients, gateways int) int {
	return int(key%uint64(clients)) % gateways
}

// ycsbGenerator returns a closed-loop client's YCSB operation stream under l
// (l's KeySpace and Theta already defaulted).
func ycsbGenerator(l Load, client, objSize int) *ycsb.Generator {
	return ycsb.NewGenerator(l.Workload, ycsb.Config{
		Records:   int(l.KeySpace),
		ValueSize: objSize,
		Theta:     l.Theta,
		MaxScan:   maxScan,
		Seed:      l.Seed ^ (uint64(client)+1)*0x9e3779b97f4a7c15,
	})
}

// gwRun is one gateway's share of an in-flight load: samples, counters and
// verification state, all owned by that gateway's kernel until the run
// drains.
type gwRun struct {
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

// LoadRun is an in-flight load started by StartLoad: the client procs are
// spawned but the caller owns the stepping (an engine Run, or a Driver).
// Done and Collect may only be called from driver context, at a window
// barrier.
type LoadRun struct {
	runs []*gwRun
}

// Done reports whether every gateway's workload has completed.
func (r *LoadRun) Done() bool {
	for _, run := range r.runs {
		if !run.done {
			return false
		}
	}
	return true
}

// Collect merges the per-gateway results canonically (by completion time,
// then source gateway). Call after the run drained — or past Done when
// auxiliary procs (a failover controller) keep the deployment busy.
func (r *LoadRun) Collect() *LoadResult {
	res := &LoadResult{}
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

// RunLoad drives the workload: it spawns the per-gateway client procs, runs
// the deployment to completion, and merges the per-gateway results
// canonically (by completion time, then gateway). A running failover
// controller never lets the run complete; drive such deployments with
// StartLoad and a Driver instead.
//
// The closed loop gives every client a static quota of Ops/Clients plain
// ops or YCSB generator draws (a workload-F read-modify-write is a read
// plus a write; a workload-E scan is sequential reads on the client's
// gateway, sampled once). In open loop, Load.LogicalClients (when larger
// than the worker count) models a client population far larger than the
// service-worker pool: the aggregate Poisson arrival process is the
// superposition of the population's individual processes, each arrival is
// attributed to one logical client, and key choice is offset per client so
// the footprint spreads the way a real population's would.
func (c *PCluster) RunLoad(l Load) (*LoadResult, error) {
	run, err := c.StartLoad(l)
	if err != nil {
		return nil, err
	}
	c.Eng.Run()
	return run.Collect(), nil
}

// StartLoad validates l and spawns the per-gateway client procs without
// running the deployment — a Driver steps its windows (see RunLoad for the
// one-shot form and the workload semantics).
func (c *PCluster) StartLoad(l Load) (*LoadRun, error) {
	if l.Clients <= 0 || l.Ops <= 0 {
		return nil, fmt.Errorf("cluster: load needs Clients>0, Ops>0")
	}
	if l.OpenLoop && l.Workload != 0 {
		return nil, fmt.Errorf("cluster: YCSB workloads run closed-loop only")
	}
	if l.OpenLoop && l.Rate <= 0 {
		return nil, fmt.Errorf("cluster: open loop needs Rate > 0")
	}
	G := c.P.Gateways
	if l.KeySpace <= 0 {
		l.KeySpace = int64(c.P.Objects)
	}
	if l.Verify {
		if c.P.ObjSize < 16 {
			return nil, fmt.Errorf("cluster: Verify needs ObjSize ≥ 16")
		}
		if l.OpenLoop && l.Clients < G {
			l.Clients = G // every gateway runs an open-loop worker: G writers
		}
		if int64(l.Clients) < l.KeySpace {
			l.KeySpace -= l.KeySpace % int64(l.Clients) // whole writer blocks
		}
	}
	if l.Theta == 0 {
		l.Theta = 0.99
	}

	runs := make([]*gwRun, G)

	for g := 0; g < G; g++ {
		g := g
		gw := c.Gateways[g]
		run := &gwRun{issuedVer: make(map[uint64]uint32), clientSet: make(map[int]struct{})}
		runs[g] = run
		nextVer := make(map[uint64]uint32)

		// checkRead verifies a read payload. Reads of keys owned by another
		// gateway's clients check payload structure only: the
		// issued-version history lives with the owner.
		checkRead := func(data []byte, key uint64) {
			maxVer := uint32(math.MaxUint32)
			if ownerGateway(key, l.Clients, G) == g {
				maxVer = run.issuedVer[key]
			}
			if err := checkFill(data, key, maxVer); err != nil {
				run.badReads++
			}
		}

		// op runs one operation on a proc of this gateway's kernel. writer
		// is the issuing proc's global id, which no other proc shares: it
		// owns the payload buffer and, under Verify, the snapped keys.
		buf := make(map[int][]byte)
		op := func(wp *sim.Proc, writer int, write bool, key uint64, arrivedAt sim.Time) {
			shard := c.Ring.Shard(key)
			if write {
				ver := uint32(1)
				if l.Verify {
					key = snapWriter(key, writer, l.Clients, l.KeySpace)
					shard = c.Ring.Shard(key)
					ver = nextVer[key] + 1
					nextVer[key] = ver
					run.issuedVer[key] = ver
				}
				payload := buf[writer]
				if payload == nil {
					payload = make([]byte, c.P.ObjSize)
					buf[writer] = payload
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
					checkRead(data, key)
				}
			}
			now := wp.Now()
			run.samples = append(run.samples, Sample{At: now, Dur: now.Sub(arrivedAt), Shard: shard, Write: write})
		}

		// scan serves one workload-E scan as n sequential reads from key;
		// the whole scan is one sample.
		scan := func(wp *sim.Proc, key uint64, n int) {
			start := wp.Now()
			for i := 0; i < n; i++ {
				k := (key + uint64(i)) % uint64(l.KeySpace)
				data, err := c.GetOn(wp, g, k, c.P.ObjSize)
				if err != nil {
					run.errors++
					return
				}
				run.reads++
				if l.Verify {
					checkRead(data, k)
				}
			}
			now := wp.Now()
			run.samples = append(run.samples, Sample{At: now, Dur: now.Sub(start), Shard: c.Ring.Shard(key)})
		}

		wg := sim.NewWaitGroup(gw.K)
		if l.OpenLoop {
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
				at    sim.Time
				key   uint64
				write bool
				stop  bool
			}
			queue := sim.NewChan[arrival](gw.K)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				// Each worker is its own writer (global id g+G*w): several
				// workers may serve one logical client at once, so neither a
				// payload buffer nor a snapped key may follow the client.
				writer := g + G*w
				gw.K.Go(fmt.Sprintf("gw%d-worker", g), func(wp *sim.Proc) {
					defer wg.Done()
					for {
						a := queue.Pop(wp)
						if a.stop {
							return
						}
						op(wp, writer, a.write, a.key, a.at)
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
						at: ap.Now(), key: key,
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
					if l.Workload != 0 {
						gen := ycsbGenerator(l, client, c.P.ObjSize)
						for i := 0; i < ops; i++ {
							for _, r := range gen.Next() {
								key := r.Key % uint64(l.KeySpace)
								if r.Op == rpc.OpScan {
									scan(wp, key, r.ScanLen)
								} else {
									op(wp, client, r.Op == rpc.OpWrite, key, wp.Now())
								}
							}
						}
						return
					}
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

	return &LoadRun{runs: runs}, nil
}
