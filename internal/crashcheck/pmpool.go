package crashcheck

import (
	"fmt"
	"sort"
	"time"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/pmpool"
	"prdma/internal/redolog"
	"prdma/internal/rnic"
	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// PMPoolConfig is the remote persistent-memory pool target
// (internal/pmpool): workers cycle allocations
// through alloc → write → free across size classes while crashes land at
// event boundaries and inside in-flight persists, and every point asserts
// the pool's crash contract — no slot leaks, no double seating, no acked
// free resurrects, no acked write loses its bytes.
type PMPoolConfig struct {
	// Kind is the durable RPC family carrying the pool protocol.
	Kind rpc.Kind
	// Seed drives workload generation and crash-point selection.
	Seed int64
	// Points / TornPoints / SecondCrashEvery place crashes exactly as in
	// Config (see pickPoints).
	Points           int
	TornPoints       int
	SecondCrashEvery int
	// Mutant plants a seeded bug the sweep must catch. Supported: "leak"
	// (Free skips the durable owner-word clear).
	Mutant string
}

// The pool target's workload: poolOps alloc/write/free cycles across
// poolWorkers client procs, and the lease that bounds orphaned allocations
// (abandoned cycles rely on it).
const (
	poolOps     = 60
	poolWorkers = 3
	leaseTTL    = 3 * time.Millisecond
)

// DefaultPMPoolConfig returns a CI-sized pool sweep.
func DefaultPMPoolConfig(kind rpc.Kind, seed int64) PMPoolConfig {
	return PMPoolConfig{
		Kind:             kind,
		Seed:             seed,
		Points:           200,
		TornPoints:       40,
		SecondCrashEvery: 5,
	}
}

// pmpoolCycle is one precomputed allocation lifecycle. Every 8th cycle is
// abandoned (the lease reclaim must collect it); every 7th is kept live to
// the end of the run (its contents must survive every crash).
type pmpoolCycle struct {
	id   uint64
	size int64
	ver  uint32
	// abandon drops the handle unfreed; keep holds it live to the end.
	abandon, keep bool
}

// pmpoolLedger is the acked-operation journal for one cycle: only effects
// whose calls returned are asserted after a crash.
type pmpoolLedger struct {
	allocAcked bool
	freeAcked  bool
	abandoned  bool
	addr       int64
	writeVer   uint32
}

// genPMPoolCycles deals cycles to workers round-robin across a deterministic
// size-class rotation (classes 64, 256 and 1024 after rounding).
func genPMPoolCycles() [][]pmpoolCycle {
	sizes := []int64{64, 192, 520, 1000}
	out := make([][]pmpoolCycle, poolWorkers)
	for i := 0; i < poolOps; i++ {
		w := i % poolWorkers
		cy := pmpoolCycle{
			id:   uint64(w+1)<<32 | uint64(i+1),
			size: sizes[i%len(sizes)],
			ver:  uint32(i + 1),
		}
		switch {
		case i%8 == 5:
			cy.abandon = true
		case i%7 == 3:
			cy.keep = true
		}
		out[w] = append(out[w], cy)
	}
	return out
}

// pmpoolRun is one simulated pool deployment plus driver state for a single
// crash-point execution.
type pmpoolRun struct {
	*server
	cfg    PMPoolConfig
	cycles [][]pmpoolCycle

	srv  *pmpool.Server
	pool *pmpool.Pool
	logs []*redolog.Log

	ledger   map[uint64]*pmpoolLedger
	progress []int
}

func newPMPoolRun(cfg PMPoolConfig) *pmpoolRun {
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), uint64(cfg.Seed)|1)
	srvHost := host.New(k, "pool", net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
	cliHost := host.New(k, "cli", net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())

	rcfg := rpc.DefaultConfig()
	rcfg.ProcessingTime = 3 * time.Microsecond
	// A small ring forces wraps and ring-full throttling during the sweep.
	rcfg.LogBytes = 16 * (1024 + 64)

	scfg := pmpool.ServerConfig{
		PoolBytes:    32 * 4096,
		SlabBytes:    4096,
		LeaseTTL:     leaseTTL,
		ReclaimEvery: leaseTTL / 4,
		LeakMutant:   cfg.Mutant == "leak",
	}
	srv := pmpool.NewServer(srvHost, rcfg, scfg)

	pcfg := pmpool.DefaultPoolConfig(1)
	pcfg.Kind = cfg.Kind
	pcfg.ConnsPerServer = 2
	pcfg.LeaseTTL = leaseTTL
	pcfg.Timeout = retransfer
	pool := pmpool.NewPool(cliHost, []*pmpool.Server{srv}, rcfg, pcfg)

	reestablish := func(p *sim.Proc) (int, error) {
		// Hold the lease renewer off for the whole recovery span: a
		// renewal appended while a log's recovery scan is in flight would
		// be dropped from the rebuilt window.
		pool.PauseRenew()
		defer pool.ResumeRenew()
		// Rebuild the server's volatile pool state from the durable
		// metadata shadow first, then replay the unconsumed redo-log tail
		// onto it.
		if err := srv.Recover(p); err != nil {
			return 0, err
		}
		return pool.Reestablish(p, 0)
	}
	r := &pmpoolRun{
		server:   newServer(k, srvHost, srv.Crash, reestablish),
		cfg:      cfg,
		cycles:   genPMPoolCycles(),
		srv:      srv,
		pool:     pool,
		logs:     pool.Logs(),
		ledger:   make(map[uint64]*pmpoolLedger),
		progress: make([]int, poolWorkers),
	}
	for _, lg := range r.logs {
		r.watch(lg, 0)
	}
	for w := 0; w < poolWorkers; w++ {
		w := w
		k.Go("pmpool-worker", func(p *sim.Proc) { r.worker(p, w) })
	}
	return r
}

// worker drives its cycles to completion, retrying every call across
// crashes. Alloc retries reuse the cycle's fixed id, so a durably-logged
// first attempt replays server-side and the retry dedups against it.
func (r *pmpoolRun) worker(p *sim.Proc, w int) {
	for _, cy := range r.cycles[w] {
		led := &pmpoolLedger{}
		r.ledger[cy.id] = led
		var h *pmpool.Handle
		for {
			r.Ready(p)
			var err error
			if h, err = r.pool.AllocID(p, cy.id, cy.size); err == nil {
				break
			}
		}
		led.allocAcked = true
		led.addr = h.Addr
		payload := fill(int(cy.size), cy.id, cy.ver)
		for {
			r.Ready(p)
			if err := r.pool.Write(p, h, 0, payload); err == nil {
				break
			}
		}
		led.writeVer = cy.ver
		switch {
		case cy.abandon:
			r.pool.Abandon(h)
			led.abandoned = true
		case cy.keep:
			// Held live: the renewer keeps its lease, and the final state
			// check requires its bytes intact.
		default:
			for {
				r.Ready(p)
				if err := r.pool.Free(p, h); err == nil {
					break
				}
			}
			led.freeAcked = true
		}
		r.progress[w]++
	}
}

func (r *pmpoolRun) doneAll() bool {
	for w := range r.progress {
		if r.progress[w] != len(r.cycles[w]) {
			return false
		}
	}
	return true
}

// verify checks the settled end state: liveness, then the acked-operation
// ledger against the durable metadata shadow and the data region.
func (r *pmpoolRun) verify() []string {
	out := r.server.verify()
	bad := func(format string, a ...any) {
		out = append(out, fmt.Sprintf(format, a...))
	}
	for w := range r.progress {
		if r.progress[w] != len(r.cycles[w]) {
			bad("worker %d stopped at %d/%d cycles", w, r.progress[w], len(r.cycles[w]))
		}
	}

	// The durable owned-id set must be exactly the kept allocations:
	// everything else was either freed with an ack, or abandoned and
	// reclaimed by lease expiry.
	owned := r.srv.OwnedIDs()
	ids := make([]uint64, 0, len(r.ledger))
	for id := range r.ledger {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	scratch := make([]byte, 1024)
	for _, id := range ids {
		led := r.ledger[id]
		want := led.allocAcked && !led.freeAcked && !led.abandoned
		addr, has := owned[id]
		switch {
		case want && !has:
			bad("live allocation lost: id %#x acked but not durably owned", id)
		case !has:
			// freed or reclaimed, as required
		case led.freeAcked:
			bad("acked free leaked: id %#x still durably owned at %#x", id, addr)
		case led.abandoned:
			bad("orphan never reclaimed: abandoned id %#x still owned at %#x", id, addr)
		default:
			if addr != led.addr {
				bad("id %#x moved: acked at %#x, durably owned at %#x", id, led.addr, addr)
			}
			// Acked write durability: the kept allocation's bytes.
			var size int64
			for _, cys := range r.cycles {
				for _, cy := range cys {
					if cy.id == id {
						size = cy.size
					}
				}
			}
			b := r.Host.PM.ReadBytesInto(led.addr, scratch[:size])
			ver, err := checkFill(b, id)
			if err != nil {
				bad("kept allocation %#x torn: %v", id, err)
			} else if ver != led.writeVer {
				bad("kept allocation %#x holds ver %d, acked ver %d", id, ver, led.writeVer)
			}
		}
	}
	for id := range owned {
		if _, ok := r.ledger[id]; !ok {
			bad("durably owned id %#x was never allocated", id)
		}
	}

	// Volatile/durable agreement and allocator books.
	if r.srv.Live() != len(owned) {
		bad("volatile index holds %d ids, durable shadow %d", r.srv.Live(), len(owned))
	}
	if err := r.srv.Slabs().CheckConsistent(); err != nil {
		bad("slab allocator inconsistent: %v", err)
	}
	for i, lg := range r.logs {
		if err := lg.CheckAccounting(); err != nil {
			bad("final accounting (conn %d): %v", i, err)
		}
	}
	return out
}

func (cfg PMPoolConfig) plan() plan {
	return plan{
		name: "pmpool/" + cfg.Kind.String(), coord: "event", seed: cfg.Seed,
		points: cfg.Points, torn: cfg.TornPoints, second: cfg.SecondCrashEvery,
		salt: pointSalt, floor: 20, mutant: cfg.Mutant, mutants: []string{"leak"},
	}
}

func (cfg PMPoolConfig) deploy() (deployment, error) {
	return newPMPoolRun(cfg), nil
}

// reference runs the workload crash-free. The lease renewer and reclaimer
// poll forever, so the event queue never drains: it steps in event batches
// until the workload completes, then includes the orphan-reclaim tail so
// crashes can land inside reclamation too.
func (r *pmpoolRun) reference(res *Result) sim.Time {
	for !r.doneAll() {
		if r.K.RunEvents(4096) == 0 {
			break
		}
	}
	r.K.RunFor(3 * leaseTTL)
	res.Events = r.K.Fired()
	return r.K.Now()
}

// crash settles long enough for recovery, replay, retries, and lease
// reclamation of both abandoned and crash-resurrected orphans.
func (r *pmpoolRun) crash(pt Point, span time.Duration) sim.Time {
	return r.crashAt(pt, 3*restart+2*span+100*time.Duration(poolOps)*retransfer/10+4*leaseTTL)
}
