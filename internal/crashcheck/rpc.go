package crashcheck

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/redolog"
	"prdma/internal/rnic"
	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// Mix selects the traffic shape driven through the client.
type Mix int

const (
	// MixWrites is all full-object writes.
	MixWrites Mix = iota
	// MixReadWrite interleaves reads between writes, so the log's
	// sequence space has gaps (reads take numbers but no log bytes).
	MixReadWrite
	// MixBatch issues multi-request batch frames (plus interleaved
	// singles), exercising batch replay after a crash.
	MixBatch
)

// Mixes lists all traffic mixes.
var Mixes = []Mix{MixWrites, MixReadWrite, MixBatch}

func (m Mix) String() string {
	switch m {
	case MixWrites:
		return "writes"
	case MixReadWrite:
		return "readwrite"
	default:
		return "batch"
	}
}

// Config is the durable-RPC target: one durable family driven by a
// pipelined client under one traffic mix, against one server.
type Config struct {
	Kind rpc.Kind
	Mix  Mix
	// Seed drives workload generation and crash-point selection.
	Seed int64
	// Points is how many event-boundary crash points to sweep.
	Points int
	// TornPoints is how many extra points aim inside an in-flight
	// persist's service window (a torn write) instead of at an event
	// boundary.
	TornPoints int
	// SecondCrashEvery arms a second crash — timed to land while the
	// first recovery is running — at every n-th point. 0 disables.
	SecondCrashEvery int
	// Ops is the number of client operations per run.
	Ops int
	// Pipeline is the number of concurrent client worker procs.
	Pipeline int
	// ObjSize is the object (and write payload) size in bytes.
	ObjSize int
	// Mutant plants a seeded bug the sweep must catch. Supported:
	// "ackbug" re-introduces the §2.4 premature-ack bug in the NIC (flush
	// ACK at DMA placement instead of the durability horizon), which the
	// sweep must report as lost acked writes.
	Mutant string
	// Restart is the server restart latency after a crash.
	Restart time.Duration
	// Retransfer is the client's call timeout / retry interval.
	Retransfer time.Duration
}

// DefaultConfig returns a sweep sized for CI: small objects, a short
// restart, and enough operations that the log ring wraps several times.
func DefaultConfig(kind rpc.Kind, mix Mix, seed int64) Config {
	return Config{
		Kind:             kind,
		Mix:              mix,
		Seed:             seed,
		Points:           250,
		TornPoints:       50,
		SecondCrashEvery: 5,
		Ops:              96,
		Pipeline:         4,
		ObjSize:          256,
		Restart:          2 * time.Millisecond,
		Retransfer:       500 * time.Microsecond,
	}
}

// pointSalt keys the single-server and pool targets' crash-point rng.
const pointSalt = 0x5E3779B97F4A7C15

func (cfg Config) plan() plan {
	return plan{
		name: cfg.Kind.String() + "/" + cfg.Mix.String(), coord: "event", seed: cfg.Seed,
		points: cfg.Points, torn: cfg.TornPoints, second: cfg.SecondCrashEvery,
		salt: pointSalt, floor: 20, mutant: cfg.Mutant, mutants: []string{"ackbug"},
	}
}

func (cfg Config) deploy(reference bool) (deployment, error) {
	if cfg.ObjSize < 16 {
		// Every write stamps its key and version into the object's first
		// 16 bytes, which the post-crash read-back checks.
		return nil, fmt.Errorf("crashcheck: the durable-RPC target needs ObjSize ≥ 16, got %d", cfg.ObjSize)
	}
	return newRun(cfg, !reference), nil
}

// reqSpec is one precomputed request: a versioned full-object write or a
// read. Versions increase in issue order, and each key is only ever
// written by one worker, so the version stored under a key must never
// move backwards — the property the post-crash read-back checks.
type reqSpec struct {
	read bool
	key  uint64
	ver  uint32
}

// opSpec is one client operation: a single request or a batch of them.
type opSpec struct {
	batch bool
	reqs  []reqSpec
}

// genOps precomputes the workload. Worker w handles ops w, w+Pipeline, …
// and only touches keys ≡ w (mod Pipeline), so per-key writes are issued
// sequentially by one proc and versions are monotone per key.
func genOps(cfg Config, rng *rand.Rand) []opSpec {
	const keysPerWorker = 3
	key := func(w int) uint64 {
		return uint64(w + cfg.Pipeline*rng.Intn(keysPerWorker))
	}
	ops := make([]opSpec, cfg.Ops)
	ver := uint32(0)
	write := func(w int) reqSpec {
		ver++
		return reqSpec{key: key(w), ver: ver}
	}
	for i := range ops {
		w := i % cfg.Pipeline
		switch {
		case cfg.Mix == MixReadWrite && i%3 == 1:
			ops[i] = opSpec{reqs: []reqSpec{{read: true, key: key(w)}}}
		case cfg.Mix == MixBatch && i%2 == 1:
			reqs := make([]reqSpec, 4)
			for j := range reqs {
				if j == 2 {
					reqs[j] = reqSpec{read: true, key: key(w)}
				} else {
					reqs[j] = write(w)
				}
			}
			ops[i] = opSpec{batch: true, reqs: reqs}
		default:
			ops[i] = opSpec{reqs: []reqSpec{write(w)}}
		}
	}
	return ops
}

// run is one simulated client/server pair plus the sweep state for a
// single crash-point execution (or the crash-free reference).
type run struct {
	*server
	cfg Config
	ops []opSpec

	store  *rpc.Store
	client rpc.Recoverable
	log    *redolog.Log

	// acked maps key -> highest version whose durability completed.
	acked map[uint64]uint32
	// progress counts completed ops per worker; inCall marks workers
	// blocked inside a call (stranded if still set at the end).
	progress []int
	inCall   []bool
}

func newRun(cfg Config, withMonitor bool) *run {
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), uint64(cfg.Seed)|1)
	np := rnic.DefaultParams()
	if cfg.Mutant == "ackbug" {
		// The premature-ack knob only exists on the native flush path;
		// the read-after-write emulation has no flush ACK to misplace.
		np.EmulateFlush = false
		np.AckBeforeDurable = true
	}
	cli := host.New(k, "cli", net, host.DefaultParams(), pmem.DefaultParams(), np)
	srv := host.New(k, "srv", net, host.DefaultParams(), pmem.DefaultParams(), np)
	store, err := rpc.NewStore(srv, 128, cfg.ObjSize)
	if err != nil {
		panic(err)
	}
	rcfg := rpc.DefaultConfig()
	rcfg.Workers = 1 // single applier keeps per-key apply order = seq order
	rcfg.ProcessingTime = 3 * time.Microsecond
	// A small ring forces wraps, lazy control-word lag, and ring-full
	// throttling — the recovery states worth crashing into.
	rcfg.LogBytes = int64(16 * (cfg.ObjSize + 64))
	engine := rpc.NewServer(srv, store, rcfg)

	r := &run{
		server: &server{
			k: k, h: srv, restart: cfg.Restart, retransfer: cfg.Retransfer, up: true,
			fail: func() { srv.Crash(); engine.Crash() },
		},
		cfg:      cfg,
		store:    store,
		acked:    make(map[uint64]uint32),
		progress: make([]int, cfg.Pipeline),
		inCall:   make([]bool, cfg.Pipeline),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	r.ops = genOps(cfg, rng)

	client := rpc.New(cfg.Kind, cli, engine, rcfg)
	rec, ok := client.(rpc.Recoverable)
	if !ok {
		panic(fmt.Sprintf("crashcheck: %v is not recoverable", cfg.Kind))
	}
	r.client = rec
	r.log = client.(interface{ Log() *redolog.Log }).Log()
	r.watch(r.log, cfg.ObjSize)

	for w := 0; w < cfg.Pipeline; w++ {
		w := w
		k.Go("crashcheck-worker", func(p *sim.Proc) { r.worker(p, w) })
	}
	if withMonitor {
		r.monitor(r.client.Reestablish)
	}
	return r
}

func (r *run) buildReq(s reqSpec) *rpc.Request {
	if s.read {
		return &rpc.Request{Op: rpc.OpRead, Key: s.key, Size: r.cfg.ObjSize}
	}
	return &rpc.Request{Op: rpc.OpWrite, Key: s.key, Size: r.cfg.ObjSize, Payload: fill(r.cfg.ObjSize, s.key, s.ver)}
}

// worker drives its share of the precomputed ops, retrying across crashes
// and journaling acked writes. CallBatch has no timeout variant, so a
// batch in flight at the crash can strand its worker forever on the dead
// durability future; inCall records that for the liveness check.
func (r *run) worker(p *sim.Proc, w int) {
	for i := w; i < len(r.ops); i += r.cfg.Pipeline {
		op := r.ops[i]
		r.inCall[w] = true
		for {
			r.waitReady(p)
			var err error
			if op.batch {
				reqs := make([]*rpc.Request, len(op.reqs))
				for j, s := range op.reqs {
					reqs[j] = r.buildReq(s)
				}
				_, err = r.client.(rpc.BatchClient).CallBatch(p, reqs)
			} else {
				_, err = r.client.CallTimeout(p, r.buildReq(op.reqs[0]), r.cfg.Retransfer)
			}
			if err == nil {
				break
			}
		}
		// The call returned with durability complete: journal every
		// constituent write as acked.
		for _, s := range op.reqs {
			if !s.read && s.ver > r.acked[s.key] {
				r.acked[s.key] = s.ver
			}
		}
		r.inCall[w] = false
		r.progress[w]++
	}
}

func (r *run) reference(res *Result) sim.Time {
	r.k.Run()
	res.Events = r.k.Fired()
	return r.k.Now()
}

// crash's settle horizon comfortably covers both restarts plus a full
// re-execution of the workload.
func (r *run) crash(pt Point, span time.Duration) sim.Time {
	return r.crashAt(pt, 3*r.cfg.Restart+2*span+100*time.Duration(r.cfg.Ops)*r.cfg.Retransfer/10)
}

// verify checks the end state after the run settled: liveness, then the
// acked-writes journal against the objects actually in server PM.
func (r *run) verify() []string {
	out := r.server.verify()
	bad := func(format string, a ...any) {
		out = append(out, fmt.Sprintf(format, a...))
	}
	for w := 0; w < r.cfg.Pipeline; w++ {
		expected := (len(r.ops) - w + r.cfg.Pipeline - 1) / r.cfg.Pipeline
		if r.inCall[w] {
			if r.cfg.Mix != MixBatch {
				bad("worker %d stranded mid-call (mix %v has timeouts everywhere)", w, r.cfg.Mix)
			}
			continue
		}
		if r.progress[w] != expected {
			bad("worker %d stopped at %d/%d ops without being stranded", w, r.progress[w], expected)
		}
	}

	// Invariant 1: every acked write survived — the stored object is
	// untorn and at least as new as the last acked version for its key.
	keys := make([]uint64, 0, len(r.acked))
	for key := range r.acked {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	obj := make([]byte, r.cfg.ObjSize) // one scratch for the whole scan
	for _, key := range keys {
		want := r.acked[key]
		if !r.store.Has(key) {
			bad("acked write lost: key %d ver %d never reached the store", key, want)
			continue
		}
		b := r.h.PM.ReadBytesInto(r.store.Addr(key), obj)
		got, err := checkFill(b, key)
		if err != nil {
			bad("acked write torn: key %d acked ver %d: %v", key, want, err)
			continue
		}
		if got < want {
			bad("acked write lost: key %d holds ver %d < acked ver %d", key, got, want)
		}
	}

	if err := r.log.CheckAccounting(); err != nil {
		bad("final accounting: %v", err)
	}
	return out
}
