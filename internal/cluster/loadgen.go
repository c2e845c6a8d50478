package cluster

import (
	"encoding/binary"
	"fmt"
	"time"

	"prdma/internal/rpc"
	"prdma/internal/sim"
	"prdma/internal/ycsb"
)

// Load configures the cluster load generator.
type Load struct {
	// Clients is the number of simulated client procs (closed loop) or
	// service workers (open loop). Tens of thousands are fine: procs are
	// cheap goroutine-backed coroutines.
	Clients int
	// Ops is the total operation count across all clients.
	Ops int
	// ReadFrac is the read share of the mix (0..1).
	ReadFrac float64
	// KeySpace is the zipfian key population; Theta its skew (0.99 = YCSB).
	KeySpace int64
	Theta    float64
	// Workload, when set, drives the closed loop from a YCSB core workload
	// (ycsb.A..ycsb.F) instead of the plain ReadFrac mix: updates, inserts,
	// scans and read-modify-write pairs per the workload's own ratios.
	// Insert-grown keys wrap into KeySpace so slots stay injective for the
	// verification payloads. Open loop does not support it.
	Workload ycsb.Workload
	// MaxScan bounds workload E's scan lengths (default 8).
	MaxScan int
	// OpenLoop switches from closed-loop (each client issues the next op
	// when the previous completes) to open-loop (ops arrive on a Poisson
	// schedule at Rate ops/sec and queue for a worker; latency then
	// includes queueing delay, the paper's Fig. 8 methodology).
	OpenLoop bool
	Rate     float64
	// LogicalClients, in a partitioned open-loop run (PCluster.RunLoad),
	// sizes the modelled client population independently of the Clients
	// worker pool: arrivals are attributed to logical clients drawn from
	// this population (Poisson superposition). Zero means Clients.
	LogicalClients int
	// Verify embeds self-describing (key, version) payloads in every write
	// and checks every read against the acknowledged history. Requires
	// ObjSize ≥ 16 and snaps write keys to one writer per key so replicas
	// converge byte-identically regardless of apply interleaving.
	Verify bool
	// Seed drives all workload randomness (forked per client).
	Seed uint64
}

// Sample is one completed operation.
type Sample struct {
	At    sim.Time // completion time
	Dur   time.Duration
	Shard int
	Write bool
}

// LoadResult aggregates one load run.
type LoadResult struct {
	Samples    []Sample
	Start, End sim.Time
	Writes     int
	Reads      int
	BadReads   int
	Errors     int

	// issuedVer is the highest version issued per key (single-writer, so
	// exact); verification bounds read versions by it.
	issuedVer map[uint64]uint32
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

// RunLoadFrom is the one-kernel load generator: it drives the workload to
// completion from proc p, with every client proc on gateway 0's kernel, and
// returns the samples. Unlike the partitioned RunLoad it supports YCSB
// workload mixes, and its closed loop shares one op counter across clients.
// The failover controller (if any) keeps running; stop it after.
func (c *PCluster) RunLoadFrom(p *sim.Proc, l Load) (*LoadResult, error) {
	if l.Clients <= 0 || l.Ops <= 0 {
		return nil, fmt.Errorf("cluster: load needs Clients>0, Ops>0")
	}
	if l.KeySpace <= 0 {
		l.KeySpace = int64(c.P.Objects)
	}
	if l.Verify {
		if c.P.ObjSize < 16 {
			return nil, fmt.Errorf("cluster: Verify needs ObjSize ≥ 16")
		}
		if int64(l.Clients) < l.KeySpace {
			l.KeySpace -= l.KeySpace % int64(l.Clients) // whole writer blocks
		}
	}
	if l.Theta == 0 {
		l.Theta = 0.99
	}
	res := &LoadResult{
		Samples:   make([]Sample, 0, l.Ops),
		Start:     p.Now(),
		issuedVer: make(map[uint64]uint32),
	}
	nextVer := make(map[uint64]uint32)

	// op runs one operation and records its sample. arrivedAt anchors the
	// latency measurement (open loop: the scheduled arrival; closed loop:
	// the issue instant).
	buf := make([][]byte, l.Clients)
	op := func(wp *sim.Proc, client int, write bool, key uint64, arrivedAt sim.Time) {
		shard := c.Ring.Shard(key)
		if write {
			ver := uint32(1)
			if l.Verify {
				key = snapWriter(key, client, l.Clients, l.KeySpace)
				shard = c.Ring.Shard(key)
				ver = nextVer[key] + 1
				nextVer[key] = ver
				res.issuedVer[key] = ver
			}
			if buf[client] == nil {
				buf[client] = make([]byte, c.P.ObjSize)
			}
			payload := buf[client]
			if l.Verify {
				fill(payload, key, ver)
			}
			if err := c.PutOn(wp, 0, key, ver, payload); err != nil {
				res.Errors++
				return
			}
			res.Writes++
		} else {
			data, err := c.GetOn(wp, 0, key, c.P.ObjSize)
			if err != nil {
				res.Errors++
				return
			}
			res.Reads++
			if l.Verify {
				if err := checkFill(data, key, res.issuedVer[key]); err != nil {
					res.BadReads++
				}
			}
		}
		now := wp.Now()
		res.Samples = append(res.Samples, Sample{At: now, Dur: now.Sub(arrivedAt), Shard: shard, Write: write})
	}

	// scanOp serves one workload-E scan as ScanLen sequential reads; the
	// whole scan is one sample.
	scanOp := func(wp *sim.Proc, key uint64, n int) {
		start := wp.Now()
		if n <= 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			k := (key + uint64(i)) % uint64(l.KeySpace)
			data, err := c.GetOn(wp, 0, k, c.P.ObjSize)
			if err != nil {
				res.Errors++
				return
			}
			res.Reads++
			if l.Verify {
				if err := checkFill(data, k, res.issuedVer[k]); err != nil {
					res.BadReads++
				}
			}
		}
		now := wp.Now()
		res.Samples = append(res.Samples, Sample{At: now, Dur: now.Sub(start), Shard: c.Ring.Shard(key)})
	}

	k := c.Gateways[0].K
	wg := sim.NewWaitGroup(k)
	if l.OpenLoop && l.Workload != 0 {
		return nil, fmt.Errorf("cluster: YCSB workloads run closed-loop only")
	}
	if l.OpenLoop {
		if l.Rate <= 0 {
			return nil, fmt.Errorf("cluster: open loop needs Rate > 0")
		}
		type arrival struct {
			at    sim.Time
			key   uint64
			write bool
			stop  bool
		}
		queue := sim.NewChan[arrival](k)
		for w := 0; w < l.Clients; w++ {
			wg.Add(1)
			client := w
			k.Go("load-worker", func(wp *sim.Proc) {
				defer wg.Done()
				for {
					a := queue.Pop(wp)
					if a.stop {
						return
					}
					op(wp, client, a.write, a.key, a.at)
				}
			})
		}
		wg.Add(1)
		k.Go("load-arrivals", func(ap *sim.Proc) {
			defer wg.Done()
			rng := sim.NewRand(l.Seed ^ 0xa11a)
			zipf := ycsb.NewZipfian(rng, l.KeySpace, l.Theta)
			for i := 0; i < l.Ops; i++ {
				gap := time.Duration(rng.Exp(1e9 / l.Rate))
				ap.Sleep(gap)
				queue.Push(arrival{
					at:    ap.Now(),
					key:   uint64(zipf.Scrambled()),
					write: rng.Float64() >= l.ReadFrac,
				})
			}
			for w := 0; w < l.Clients; w++ {
				queue.Push(arrival{stop: true})
			}
		})
	} else if l.Workload != 0 {
		maxScan := l.MaxScan
		if maxScan <= 0 {
			maxScan = 8
		}
		issued := 0
		for w := 0; w < l.Clients; w++ {
			wg.Add(1)
			client := w
			k.Go("ycsb-client", func(wp *sim.Proc) {
				defer wg.Done()
				gen := ycsb.NewGenerator(l.Workload, ycsb.Config{
					Records:   int(l.KeySpace),
					ValueSize: c.P.ObjSize,
					Theta:     l.Theta,
					MaxScan:   maxScan,
					Seed:      l.Seed ^ (uint64(client)+1)*0x9e3779b97f4a7c15,
				})
				for issued < l.Ops {
					issued++
					// One generator draw is one logical op; RMW pairs (F)
					// sample as a read plus a write.
					for _, r := range gen.Next() {
						key := r.Key % uint64(l.KeySpace)
						switch r.Op {
						case rpc.OpScan:
							scanOp(wp, key, r.ScanLen)
						case rpc.OpWrite:
							op(wp, client, true, key, wp.Now())
						default:
							op(wp, client, false, key, wp.Now())
						}
					}
				}
			})
		}
	} else {
		issued := 0
		for w := 0; w < l.Clients; w++ {
			wg.Add(1)
			client := w
			k.Go("load-client", func(wp *sim.Proc) {
				defer wg.Done()
				rng := sim.NewRand(l.Seed ^ (uint64(client)+1)*0x9e3779b97f4a7c15)
				zipf := ycsb.NewZipfian(rng, l.KeySpace, l.Theta)
				for issued < l.Ops {
					issued++
					op(wp, client, rng.Float64() >= l.ReadFrac, uint64(zipf.Scrambled()), wp.Now())
				}
			})
		}
	}
	wg.Wait(p)
	res.End = p.Now()
	return res, nil
}

// Throughput returns completed ops per second of simulated time.
func (r *LoadResult) Throughput() float64 {
	el := r.End.Sub(r.Start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(len(r.Samples)) / el
}
