// Package crashcheck is a deterministic crash-point sweep checker for the
// durable-RPC recovery path. It replays the same pipelined client workload
// over and over, each time injecting a server crash at a different point —
// every selected event boundary in the run, plus seeded offsets *inside*
// the PM device's in-flight persist windows (torn writes) — then restarts
// the server, runs redo-log recovery and connection re-establishment, and
// asserts the crash-consistency contract end to end:
//
//  1. No acked write is ever lost: every request whose durability future
//     completed before the crash is either already applied or replayed.
//  2. Replay is at-least-once and in sequence order: the recovery scan
//     yields strictly increasing sequence numbers at or above the durable
//     floor (the sequence space is gapped — reads own numbers but no log
//     bytes — so contiguity is not required).
//  3. Torn entries never surface: anything the scan returns decodes to an
//     internally consistent request frame; a commit word that was not yet
//     durable keeps the entry (and everything after it) out.
//  4. Post-recovery ring accounting matches a from-scratch reconstruction
//     of the ring state (redolog.CheckAccounting).
//  5. A crash during recovery is itself recoverable: selected points arm
//     a second crash timed to land while the first recovery is in flight.
//
// Determinism: the workload is precomputed from a seed, the simulator is
// deterministic, and crashes are placed by event index (Kernel.RunEvents)
// or by an exact simulated time inside a persist window (Kernel.RunUntil),
// so every violation is replayable from (seed, point) alone.
package crashcheck

import (
	"encoding/binary"
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

// Config parameterizes one sweep.
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
	// AckBeforeDurable re-introduces the §2.4 premature-ack bug in the
	// NIC (flush ACK at DMA placement instead of the durability
	// horizon). The sweep must then report lost acked writes.
	AckBeforeDurable bool
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

// Point identifies one crash placement.
type Point struct {
	// Event is the event-boundary index the crash lands on.
	Event uint64
	// TornFrac, when positive, advances the clock from the event
	// boundary to this fraction of an in-flight persist window before
	// crashing, so the crash lands mid-persist.
	TornFrac float64
	// SecondCrash arms another crash during the first recovery.
	SecondCrash bool
}

func (pt Point) String() string {
	s := fmt.Sprintf("event=%d", pt.Event)
	if pt.TornFrac > 0 {
		s += fmt.Sprintf(" torn=%.3f", pt.TornFrac)
	}
	if pt.SecondCrash {
		s += " second-crash"
	}
	return s
}

// Violation is one broken invariant at one crash point.
type Violation struct {
	Kind  rpc.Kind
	Mix   Mix
	Seed  int64
	Point Point
	// At is the simulated crash time.
	At  sim.Time
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("%v/%v seed=%d %v at=%v: %s", v.Kind, v.Mix, v.Seed, v.Point, v.At, v.Msg)
}

// Result summarizes one sweep.
type Result struct {
	Kind rpc.Kind
	Mix  Mix
	Seed int64
	// Points is how many distinct crash points were swept.
	Points int
	// Events is the event count of the crash-free reference run.
	Events uint64
	// Replayed totals log replays across all points.
	Replayed int
	// Violations holds up to maxViolations broken invariants;
	// ViolationCount is the true total.
	Violations     []Violation
	ViolationCount int
}

const maxViolations = 50

// Minimal returns the earliest-crash violation: the minimal reproduction
// to chase first. Nil when the sweep was clean.
func (r *Result) Minimal() *Violation {
	var min *Violation
	for i := range r.Violations {
		v := &r.Violations[i]
		if min == nil || v.Point.Event < min.Point.Event {
			min = v
		}
	}
	return min
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

// fill builds a self-describing object image: key, version, then a byte
// pattern derived from both, so a torn or misdirected apply is visible.
func fill(objSize int, key uint64, ver uint32) []byte {
	b := make([]byte, objSize)
	binary.LittleEndian.PutUint64(b[0:], key)
	binary.LittleEndian.PutUint32(b[8:], ver)
	for j := 16; j < objSize; j++ {
		b[j] = byte(17*key + 31*uint64(ver) + uint64(j))
	}
	return b
}

func checkFill(b []byte, key uint64) (uint32, error) {
	if got := binary.LittleEndian.Uint64(b[0:]); got != key {
		return 0, fmt.Errorf("object stamped with key %d, want %d", got, key)
	}
	ver := binary.LittleEndian.Uint32(b[8:])
	for j := 16; j < len(b); j++ {
		if b[j] != byte(17*key+31*uint64(ver)+uint64(j)) {
			return 0, fmt.Errorf("object for key %d ver %d torn at byte %d", key, ver, j)
		}
	}
	return ver, nil
}

// run is one simulated cluster plus the driver state for a single
// crash-point execution (or the crash-free reference).
type run struct {
	cfg Config
	ops []opSpec

	k      *sim.Kernel
	srv    *host.Host
	engine *rpc.Server
	store  *rpc.Store
	client rpc.Recoverable
	log    *redolog.Log

	serverUp     bool
	generation   int
	reestGen     int
	reconnecting bool

	// acked maps key -> highest version whose durability completed.
	acked map[uint64]uint32
	// progress counts completed ops per worker; inCall marks workers
	// blocked inside a call (stranded if still set at the end).
	progress []int
	inCall   []bool
	replayed int

	// recoverViolations collects invariant 2/3/4 breaks observed by the
	// redo log's OnRecover hook during this run.
	recoverViolations []string
}

func newRun(cfg Config, withMonitor bool) *run {
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), uint64(cfg.Seed)|1)
	np := rnic.DefaultParams()
	if cfg.AckBeforeDurable {
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
		cfg:      cfg,
		k:        k,
		srv:      srv,
		engine:   engine,
		store:    store,
		serverUp: true,
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
	r.log.OnRecover = r.checkRecover

	for w := 0; w < cfg.Pipeline; w++ {
		w := w
		k.Go("crashcheck-worker", func(p *sim.Proc) { r.worker(p, w) })
	}
	if withMonitor {
		// One proc owns re-establishment so replay is enqueued before
		// any worker's retried or new requests. The reference run skips
		// it: its poll loop would keep the event queue alive forever.
		k.Go("crashcheck-monitor", func(p *sim.Proc) {
			for {
				p.Sleep(20 * time.Microsecond)
				if r.serverUp && r.reestGen != r.generation {
					r.reconnecting = true
					replayed, err := r.client.Reestablish(p)
					if err != nil {
						panic(err) // serial harness: reestablish cannot refuse
					}
					r.replayed += replayed
					r.reestGen = r.generation
					r.reconnecting = false
				}
			}
		})
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
			for !r.serverUp || r.reconnecting || r.reestGen != r.generation {
				p.Sleep(r.cfg.Retransfer / 4)
			}
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

// crash fails the server and schedules its restart, exactly as the §5.4
// failure driver does. Safe to call while already down (no-op).
func (r *run) crash() {
	if !r.serverUp {
		return
	}
	r.serverUp = false
	r.srv.Crash()
	r.engine.Crash()
	r.k.AfterFunc(r.cfg.Restart, func() {
		r.srv.Restart()
		r.serverUp = true
		r.generation++
	})
}

// checkRecover is the redo log's OnRecover hook: invariants 2–4.
func (r *run) checkRecover(info redolog.RecoverInfo) {
	bad := func(format string, a ...any) {
		r.recoverViolations = append(r.recoverViolations, fmt.Sprintf(format, a...))
	}
	prev := uint64(0)
	for i, e := range info.Entries {
		if e.Seq < info.Floor {
			bad("recovered seq %d below durable floor %d", e.Seq, info.Floor)
		}
		if i > 0 && e.Seq <= prev {
			bad("recovered seqs not strictly increasing: %d after %d", e.Seq, prev)
		}
		prev = e.Seq
		_, req, err := rpc.DecodeLoggedRequest(e)
		if err != nil {
			bad("recovered entry is not a consistent frame: %v", err)
			continue
		}
		r.checkLoggedReq(bad, e.Seq, req)
	}
	if err := r.log.CheckAccounting(); err != nil {
		bad("post-recover accounting: %v", err)
	}
}

// checkLoggedReq verifies a recovered request (or each constituent of a
// recovered batch frame) carries an untorn payload from the workload.
func (r *run) checkLoggedReq(bad func(string, ...any), seq uint64, req *rpc.Request) {
	if subs, ok := rpc.BatchContents(req); ok {
		for _, s := range subs {
			r.checkLoggedReq(bad, seq, s)
		}
		return
	}
	if req.Op != rpc.OpWrite {
		return
	}
	if len(req.Payload) != r.cfg.ObjSize {
		bad("recovered write seq %d: payload %d bytes, want %d", seq, len(req.Payload), r.cfg.ObjSize)
		return
	}
	ver, err := checkFill(req.Payload, req.Key)
	if err != nil {
		bad("recovered write seq %d: %v", seq, err)
		return
	}
	_ = ver
}

// verify checks the end state after the run settled: liveness, then the
// acked-writes journal against the objects actually in server PM.
func (r *run) verify() []string {
	var out []string
	bad := func(format string, a ...any) {
		out = append(out, fmt.Sprintf(format, a...))
	}
	out = append(out, r.recoverViolations...)

	if !r.serverUp {
		bad("server still down after settle horizon")
	}
	stranded := 0
	for w := 0; w < r.cfg.Pipeline; w++ {
		expected := (len(r.ops) - w + r.cfg.Pipeline - 1) / r.cfg.Pipeline
		if r.inCall[w] {
			stranded++
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
		b := r.srv.PM.ReadBytesInto(r.store.Addr(key), obj)
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

// pointSalt keys the single-server and pool sweeps' crash-point rng.
const pointSalt = 0x5E3779B97F4A7C15

// Sweep runs the reference execution to size the event space, then
// replays the workload once per crash point and collects violations.
func Sweep(cfg Config) Result {
	res := Result{Kind: cfg.Kind, Mix: cfg.Mix, Seed: cfg.Seed}

	// Crash-free reference: measures the event count and proves the
	// workload itself is clean.
	ref := newRun(cfg, false)
	ref.k.Run()
	res.Events = ref.k.Fired()
	record := func(r *run, pt Point, at sim.Time, msgs []string) {
		for _, msg := range msgs {
			res.ViolationCount++
			if len(res.Violations) < maxViolations {
				res.Violations = append(res.Violations, Violation{
					Kind: cfg.Kind, Mix: cfg.Mix, Seed: cfg.Seed,
					Point: pt, At: at, Msg: msg,
				})
			}
		}
	}
	record(ref, Point{}, ref.k.Now(), ref.verify())
	refSpan := ref.k.Now().Sub(sim.Time(0))
	ref.k.Shutdown()

	points := pickPoints(cfg, res.Events, pointSalt, 20)
	res.Points = len(points)
	for _, pt := range points {
		r, at := runPoint(cfg, pt, refSpan)
		res.Replayed += r.replayed
		record(r, pt, at, r.verify())
		// Reap the point's kernel: hundreds of points each parking their
		// procs would otherwise accumulate across the sweep.
		r.k.Shutdown()
	}
	return res
}

// pickPoints selects distinct crash points across the reference coordinate
// space [lo, events): Points boundaries, TornPoints mid-persist offsets, and
// a second crash armed every SecondCrashEvery-th point. The salt keys the
// rng per sweep kind.
func pickPoints(cfg Config, events uint64, salt int64, lo uint64) []Point {
	rng := rand.New(rand.NewSource(cfg.Seed ^ salt))
	if events <= lo+2 {
		lo = 1
	}
	span := int64(events - lo)
	if span <= 0 {
		span = 1
	}
	seen := make(map[uint64]bool)
	var points []Point
	n := cfg.Points
	if uint64(n) > uint64(span) {
		n = int(span)
	}
	for len(points) < n {
		e := lo + uint64(rng.Int63n(span))
		if seen[e] {
			continue
		}
		seen[e] = true
		points = append(points, Point{Event: e})
	}
	for i := 0; i < cfg.TornPoints; i++ {
		e := lo + uint64(rng.Int63n(span))
		points = append(points, Point{Event: e, TornFrac: 0.05 + 0.9*rng.Float64()})
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].Event != points[j].Event {
			return points[i].Event < points[j].Event
		}
		return points[i].TornFrac < points[j].TornFrac
	})
	if cfg.SecondCrashEvery > 0 {
		for i := range points {
			if (i+1)%cfg.SecondCrashEvery == 0 {
				points[i].SecondCrash = true
			}
		}
	}
	return points
}

// runPoint executes the workload, crashes at pt, and lets the system
// settle. Returns the run (for verification) and the crash time.
func runPoint(cfg Config, pt Point, refSpan time.Duration) (*run, sim.Time) {
	r := newRun(cfg, true)
	r.k.RunEvents(pt.Event)
	if pt.TornFrac > 0 {
		// Aim inside an in-flight persist: advance the clock (executing
		// any earlier events) to the chosen fraction of its window.
		if ws := r.srv.PM.InflightTornWindows(r.k.Now()); len(ws) > 0 {
			w := ws[int(pt.Event)%len(ws)]
			start := w.Start
			if now := r.k.Now(); start < now {
				start = now
			}
			t := start.Add(time.Duration(pt.TornFrac * float64(w.End.Sub(start))))
			if t > r.k.Now() {
				r.k.RunUntil(t)
			}
		}
	}
	at := r.k.Now()
	r.crash()
	if pt.SecondCrash {
		// Land a second crash shortly after the restart, while the
		// recovery scan and replay are typically still in flight.
		delta := time.Duration(pt.Event%40) * time.Microsecond
		r.k.AfterFunc(cfg.Restart+delta, r.crash)
	}
	// The monitor proc polls forever, so the event queue never drains;
	// bound the settle phase by time instead. The horizon comfortably
	// covers both restarts plus a full re-execution of the workload.
	horizon := at.Add(3*cfg.Restart + 2*refSpan + 100*time.Duration(len(r.ops))*cfg.Retransfer/10)
	r.k.RunUntil(horizon)
	return r, at
}
