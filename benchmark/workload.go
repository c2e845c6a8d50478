package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/redolog"
	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// workload is one closed-loop input set. prepare builds the seed-determined
// inputs once per run, outside every timed region, and returns the function
// that executes one pass: fresh deployments, a fixed op stream, every output
// checked. Passes at one seed simulate identically; only host time varies.
// README.md says why each workload was chosen.
type workload struct {
	name    string
	prepare func(seed uint64, scale float64) (func(tr *tracer) *passResult, error)
}

var workloads = []workload{
	{"rpc_small_write", smallWrite.prepare},
	{"rpc_large_read", largeRead.prepare},
	{"kv_cluster", kvCluster.prepare},
	{"pmpool_shuffle", poolShuffle.prepare},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled multiplies a per-pass op count by scale, keeping at least one op.
func scaled(n int, scale float64) int {
	if v := int(float64(n) * scale); v > 1 {
		return v
	}
	return 1
}

// opName identifies the layer call an op record or span belongs to.
type opName uint8

const (
	nameSetup opName = iota
	nameCycle
	nameShuffle
	namePut
	nameGet
	nameAlloc
	nameWrite
	nameRead
	nameFree
	nameRPC // nameRPC+i is a call on rpc.Kinds[i]
)

// nNames counts the op names.
var nNames = int(nameRPC) + len(rpc.Kinds)

func (n opName) String() string {
	switch n {
	case nameSetup:
		return "bench.setup"
	case nameCycle:
		return "pmpool.cycle"
	case nameShuffle:
		return "pmpool.shuffle"
	case namePut:
		return "cluster.put"
	case nameGet:
		return "cluster.get"
	case nameAlloc:
		return "pmpool.alloc"
	case nameWrite:
		return "pmpool.write"
	case nameRead:
		return "pmpool.read"
	case nameFree:
		return "pmpool.free"
	}
	return "rpc." + rpc.Kinds[n-nameRPC].String()
}

// rpcName returns the op name of a call on kind.
func rpcName(kind rpc.Kind) opName {
	for i, k := range rpc.Kinds {
		if k == kind {
			return nameRPC + opName(i)
		}
	}
	panic(fmt.Sprintf("benchmark: %v is not in rpc.Kinds", kind))
}

// opRec is one timed call into a layer: host and virtual nanoseconds,
// saturated at 32 bits (4.29 s), which no single call comes near.
type opRec struct {
	name      opName
	host, sim uint32
}

func sat32(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// Outcome markers folded into the fingerprint next to each op's virtual
// latency.
const (
	outFailed     = math.MaxUint64
	outUnverified = 1 << 40
	outWrite      = 1 << 41
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvAdd folds the eight little-endian bytes of v into an FNV-1a state.
func fnvAdd(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// client is one closed-loop caller, or a pass's driver (setup and shuffle
// spans). Only its own sim proc touches it while the simulation runs, so
// clients on different engine kernels share nothing.
type client struct {
	id     int
	recs   []opRec
	fp     uint64
	failed int64
	// stale counts reads that returned a version older than the last acked
	// write to the key; unverified counts reads that returned no bytes.
	stale, unverified int64
	firstErr          error
	end               sim.Time // virtual time of the last completion
	done              bool     // the op loop ran to its end

	tr     *tracer
	spans  []span
	nextID uint64
}

func newClient(id int, tr *tracer) *client { return &client{id: id, fp: fnvOffset, tr: tr} }

// record notes one call that began at host time h0 and virtual time s0 and
// completed at virtual time s1, with its outcome for the fingerprint.
func (c *client) record(name opName, parent uint64, h0 time.Time, s0, s1 sim.Time, outcome uint64) {
	h1 := time.Now()
	c.recs = append(c.recs, opRec{name: name, host: sat32(h1.Sub(h0)), sim: sat32(s1.Sub(s0))})
	c.fold(s1.Sub(s0), outcome)
	c.end = s1
	c.span(c.newID(), name, parent, h0, h1, s0, s1)
}

// fold adds one op's virtual latency and outcome to the fingerprint.
func (c *client) fold(lat time.Duration, outcome uint64) {
	c.fp = fnvAdd(fnvAdd(c.fp, uint64(lat)), outcome)
}

// fail counts one failed op and keeps the first error for the report.
func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// spanLimit caps the spans kept for the Chrome trace of a run; every call
// still feeds the aggregates through its op record.
const spanLimit = 20000

// tracer is one traced pass's span sink. Spans live in their client; the
// tracer only hands out the shared admission budget.
type tracer struct {
	epoch time.Time
	kept  atomic.Int64
}

// span is one call into a layer, in host time since the tracer's epoch and
// in virtual time. Spans of one op share a parent id.
type span struct {
	name         opName
	client       int
	id, parent   uint64
	host0, host1 time.Duration
	sim0, sim1   sim.Time
}

// newID returns a fresh span id, or 0 when tracing is off.
func (c *client) newID() uint64 {
	if c.tr == nil {
		return 0
	}
	c.nextID++
	return uint64(c.id+1)<<40 | c.nextID
}

// span records a span when tracing is on; with tracing off it returns at
// once and allocates nothing.
func (c *client) span(id uint64, name opName, parent uint64, h0, h1 time.Time, s0, s1 sim.Time) {
	if c.tr == nil || c.tr.kept.Add(1) > spanLimit {
		return
	}
	c.spans = append(c.spans, span{
		name: name, client: c.id, id: id, parent: parent,
		host0: h0.Sub(c.tr.epoch), host1: h1.Sub(c.tr.epoch), sim0: s0, sim1: s1,
	})
}

// patterns produces and checks self-describing payloads: key at [0,8),
// version at [8,12), zero at [12,16), then one of a few seed-derived bodies
// chosen by (key, version). Version 0 means never written: the object reads
// as zeros.
type patterns struct {
	bodies [][]byte
	zeros  []byte
}

const nBodies = 4

func newPatterns(seed uint64, size int) *patterns {
	pt := &patterns{zeros: make([]byte, size)}
	rng := sim.NewRand(seed ^ 0x5107)
	for i := 0; i < nBodies; i++ {
		b := make([]byte, size-16)
		for j := range b {
			b[j] = byte(rng.Uint64())
		}
		pt.bodies = append(pt.bodies, b)
	}
	return pt
}

func (pt *patterns) body(key uint64, ver uint32) []byte {
	return pt.bodies[(key*31+uint64(ver))%nBodies]
}

// fill writes the payload for (key, ver) into buf.
func (pt *patterns) fill(buf []byte, key uint64, ver uint32) {
	binary.LittleEndian.PutUint64(buf[0:], key)
	binary.LittleEndian.PutUint32(buf[8:], ver)
	binary.LittleEndian.PutUint32(buf[12:], 0)
	copy(buf[16:], pt.body(key, ver))
}

// check returns the version data holds for key, or an error when data is
// not a payload this benchmark wrote for key.
func (pt *patterns) check(data []byte, key uint64) (uint32, error) {
	if len(data) != len(pt.zeros) {
		return 0, fmt.Errorf("key %d: read %d bytes, want %d", key, len(data), len(pt.zeros))
	}
	ver := binary.LittleEndian.Uint32(data[8:])
	want := pt.zeros[16:]
	if ver == 0 {
		if !bytes.Equal(data[:16], pt.zeros[:16]) {
			return 0, fmt.Errorf("key %d: unversioned object is not zero", key)
		}
	} else {
		if got := binary.LittleEndian.Uint64(data); got != key {
			return 0, fmt.Errorf("key %d: payload carries key %d", key, got)
		}
		if binary.LittleEndian.Uint32(data[12:]) != 0 {
			return 0, fmt.Errorf("key %d version %d: header corrupt", key, ver)
		}
		want = pt.body(key, ver)
	}
	if !sameBody(data[16:], want) {
		return 0, fmt.Errorf("key %d version %d: body differs from the payload written", key, ver)
	}
	return ver, nil
}

// sameBody compares a read body with the expected one: in full up to 4 KiB,
// beyond that one 64-byte window per 4 KiB plus the last 64 bytes. Bodies
// are random per (key, version), so a stale, misplaced or torn page still
// shows, and checking a 64 KB read stays cheap next to the read: a full
// compare cost the rpc_large_read run about 4 % of its CPU.
func sameBody(got, want []byte) bool {
	const page, window = 4096, 64
	if len(got) <= page {
		return bytes.Equal(got, want)
	}
	for off := 0; off < len(got); off += page {
		end := min(off+window, len(got))
		if !bytes.Equal(got[off:end], want[off:end]) {
			return false
		}
	}
	n := len(got) - window
	return bytes.Equal(got[n:], want[n:])
}

// Layer counters read from the layers' public stats fields after a pass.
const (
	cEvents = iota
	cWindows
	cBarriers
	cIdleSkips
	cCrossed
	cMsgs
	cBytes
	cSlabHits
	cSlabMisses
	cStaged
	cFlushAcks
	cRetransmits
	cPersists
	cPersistBytes
	cPMReads
	cFlushes
	cSWNanos
	cAppends
	cHandled
	cPoolRetries
	cLeaked
	nCounters
)

type counters [nCounters]int64

func (c *counters) add(o *counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// hosts adds each host's NIC, PM, LLC and software-time counters.
func (c *counters) hosts(hs ...*host.Host) {
	for _, h := range hs {
		c[cStaged] += h.NIC.StagedMsgs
		c[cFlushAcks] += h.NIC.FlushAcks
		c[cRetransmits] += h.NIC.Retransmits
		c[cPersists] += h.PM.PersistOps
		c[cPersistBytes] += h.PM.PersistBytes
		c[cPMReads] += h.PM.ReadOps
		c[cFlushes] += h.LLC.Flushes
		c[cSWNanos] += int64(h.SWTime)
	}
}

func (c *counters) network(n *fabric.Network) {
	c[cMsgs] += n.Delivered
	c[cBytes] += n.BytesSent
	hits, misses := n.XferSlabStats()
	c[cSlabHits] += hits
	c[cSlabMisses] += misses
}

func (c *counters) engine(e *sim.Engine) {
	c[cEvents] += int64(e.Fired())
	c[cWindows] += int64(e.Windows())
	c[cBarriers] += int64(e.Barriers())
	c[cIdleSkips] += int64(e.IdleSkips())
	c[cCrossed] += int64(e.Crossed())
}

func (c *counters) logs(ls ...*redolog.Log) {
	for _, l := range ls {
		c[cAppends] += l.Appends
	}
}

// passResult is what one pass produced.
type passResult struct {
	setup       time.Duration // host time building deployments
	busy        time.Duration // host time running the simulation
	simElapsed  time.Duration // virtual time from first issue to last completion
	extraOps    int64         // calls made inside a layer (the shuffle's pool calls)
	shuffleHost time.Duration
	// clients are the callers in index order; the pass's driver is last.
	clients []*client
	cnt     counters
}

// ops returns the calls attempted in the pass.
func (r *passResult) ops() int64 {
	n := r.extraOps
	for _, c := range r.clients {
		n += int64(len(c.recs))
	}
	return n
}

// fingerprint folds the clients' fingerprints in index order.
func (r *passResult) fingerprint() uint64 {
	h := uint64(fnvOffset)
	for _, c := range r.clients {
		h = fnvAdd(h, c.fp)
	}
	return h
}

// checkDone fails every client whose op loop did not run to its end: the
// simulation went quiescent with callers still blocked.
func (r *passResult) checkDone() {
	for _, c := range r.clients[:len(r.clients)-1] {
		if !c.done {
			c.fail(fmt.Errorf("client %d: simulation drained before its op loop finished", c.id))
		}
	}
}
