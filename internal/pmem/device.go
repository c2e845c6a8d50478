// Package pmem models a byte-addressable persistent-memory device (Intel
// Optane DCPMM in the paper's testbed).
//
// The model captures the three properties the paper's results rest on:
//
//  1. Persisting data costs time: a base latency plus a bandwidth term, with
//     FIFO queueing when multiple agents (NIC DMA engine, CPU clwb path)
//     contend for the media.
//  2. The CPU persist path (store + clwb/clflush-opt) has lower bandwidth
//     than the NIC's DMA path; this asymmetry is why RNIC-side flushing wins
//     for large objects.
//  3. Durability is delayed: bytes become durable only when their persist
//     operation completes. A crash before completion loses (part of) the
//     write; writes larger than an atomic unit may tear.
//
// Contents live in a dram.Memory, the sparse store that keeps only what was
// written: a page's first write gives it one 256-byte-aligned extent
// covering the written bytes (the whole 4 KiB page if that would pass half
// of it), and a later write outside the extent makes the page whole.
// Durable contents stay in it across Crash. Callers that only need timing —
// the throughput experiments move gigabytes of synthetic payload — pass nil
// data and no memory is touched.
package pmem

import (
	"encoding/binary"
	"fmt"
	"time"

	"prdma/internal/dram"
	"prdma/internal/sim"
)

// AtomicUnit is the size of a failure-atomic write (an aligned 8-byte store,
// as the paper uses for the redo-log operator entry).
const AtomicUnit = 8

// tornChunks caps how many separately-durable pieces a large persist is
// split into. Tearing granularity only needs to exist for the crash-safety
// proofs; more pieces would just multiply event count.
const tornChunks = 8

// Params configures a device.
type Params struct {
	// PersistBase is the fixed latency of any persist operation.
	PersistBase time.Duration
	// DMABytesPerSec is the NIC-DMA persist bandwidth.
	DMABytesPerSec float64
	// CPUBytesPerSec is the CPU store+clwb persist bandwidth.
	CPUBytesPerSec float64
	// ReadBase and ReadBytesPerSec model media reads.
	ReadBase        time.Duration
	ReadBytesPerSec float64
	// Channels is the number of independently-queued media channels
	// (interleaved DIMMs). Requests map to channels by address block, as
	// the Optane AIT interleaving does. Zero means 4.
	Channels int
}

// DefaultParams returns the Optane-like defaults from DESIGN.md §4.
func DefaultParams() Params {
	return Params{
		PersistBase:     500 * time.Nanosecond,
		DMABytesPerSec:  2e9,
		CPUBytesPerSec:  1e9,
		ReadBase:        300 * time.Nanosecond,
		ReadBytesPerSec: 6e9,
		Channels:        4,
	}
}

// Path selects which agent persists and therefore which bandwidth applies.
type Path int

const (
	// DMA is the RNIC's direct path to the persistence domain.
	DMA Path = iota
	// CPU is the store + clwb path through the cache hierarchy.
	CPU
)

func (p Path) String() string {
	if p == DMA {
		return "dma"
	}
	return "cpu"
}

// Device is one PM module.
type Device struct {
	K      *sim.Kernel
	Params Params

	mem   dram.Memory // durable contents
	media []*sim.Resource

	// epoch invalidates in-flight persist completions on crash.
	epoch int

	// inflight records the service interval of every data-carrying persist
	// that tears (applies in more than one chunk). Crash-point sweeps sample
	// crash times inside these windows to exercise partial application.
	inflight []TornWindow

	// chunkFree pools chunk appliers: the persist path schedules up to
	// tornChunks content applications per write, and pooling their closures
	// keeps the data plane alloc-free (same pattern as the kernel's event
	// free list). Single-threaded per kernel, so no sync.
	chunkFree []*chunkApply

	// Stats.
	PersistOps   int64
	PersistBytes int64
	ReadOps      int64
	TornWrites   int64
	// SparseSkippedBytes counts bytes that were timed but never
	// materialized because they fell in a segment gap (redo-log entry
	// padding between payload and commit word).
	SparseSkippedBytes int64
}

// chunkApply is one pooled, pre-bound application of a torn chunk. The
// persist path fills in the segment views and schedules fn; run returns the
// applier to the device pool before touching media so a chunk firing can
// immediately be reused by the next persist. Segments of at most
// stageBytes are staged into the applier's inline buffer, letting callers
// reuse small header/commit scratch buffers as soon as the persist call
// returns; larger segments are aliased and must stay untouched until the
// persist completes.
type chunkApply struct {
	d                *Device
	epoch            int
	addr             int64 // media address of this chunk
	head, body, tail []byte
	off, sz, n       int // chunk range and logical image size
	stage            [stageBytes]byte
	tbuf             [AtomicUnit]byte
	fn               func()
}

// stageBytes is the inline staging capacity for head segments (enough for a
// redo-log entry header and then some).
const stageBytes = 24

func (d *Device) newChunk() *chunkApply {
	if n := len(d.chunkFree); n > 0 {
		c := d.chunkFree[n-1]
		d.chunkFree = d.chunkFree[:n-1]
		return c
	}
	c := &chunkApply{d: d}
	c.fn = func() { c.run() }
	return c
}

func (c *chunkApply) run() {
	d := c.d
	epoch, addr := c.epoch, c.addr
	head, body, tail := c.head, c.body, c.tail
	off, sz, n := c.off, c.sz, c.n
	c.head, c.body, c.tail = nil, nil, nil
	d.chunkFree = append(d.chunkFree, c)
	if d.epoch != epoch {
		return // lost in a crash
	}
	d.applySegs(addr, off, sz, n, head, body, tail)
}

// applySegs materializes the bytes of logical range [off, off+sz) of an
// n-byte image whose contents are head ++ body ++ zero-gap ++ tail (the
// tail ending at offset n), starting at media address addr. Bytes outside
// the segments are never written; unwritten media reads as zero.
func (d *Device) applySegs(addr int64, off, sz, n int, head, body, tail []byte) {
	if off < len(head) {
		hi := off + sz
		if hi > len(head) {
			hi = len(head)
		}
		d.mem.Write(addr, head[off:hi])
	}
	if len(body) > 0 {
		lo, hi := off, off+sz
		blo, bhi := len(head), len(head)+len(body)
		if lo < blo {
			lo = blo
		}
		if hi > bhi {
			hi = bhi
		}
		if lo < hi {
			d.mem.Write(addr+int64(lo-off), body[lo-blo:hi-blo])
		}
	}
	if len(tail) > 0 {
		lo, hi := off, off+sz
		tlo := n - len(tail)
		if lo < tlo {
			lo = tlo
		}
		if lo < hi {
			d.mem.Write(addr+int64(lo-off), tail[lo-tlo:hi-tlo])
		}
	}
}

// New returns a device bound to kernel k.
func New(k *sim.Kernel, p Params) *Device {
	if p.Channels <= 0 {
		p.Channels = 4
	}
	d := &Device{K: k, Params: p}
	for i := 0; i < p.Channels; i++ {
		d.media = append(d.media, sim.NewResource(k))
	}
	return d
}

// channelBlock is the interleave granularity across media channels.
const channelBlock = 4096

// channel maps an address to its media channel.
func (d *Device) channel(addr int64) *sim.Resource {
	idx := int(addr/channelBlock) % len(d.media)
	if idx < 0 {
		idx = -idx
	}
	return d.media[idx]
}

// bandwidth returns the bytes/sec for the chosen path.
func (d *Device) bandwidth(path Path) float64 {
	if path == CPU {
		return d.Params.CPUBytesPerSec
	}
	return d.Params.DMABytesPerSec
}

// PersistCost returns the service time to persist n bytes over path,
// excluding queueing.
func (d *Device) PersistCost(n int, path Path) time.Duration {
	c := sim.CostModel{Base: d.Params.PersistBase, BytesPerSec: d.bandwidth(path)}
	return c.Cost(n)
}

// Persist schedules a durable write of n bytes at media address addr,
// starting no earlier than `at`, and returns the completion time. data may
// be nil for timing-only traffic, or shorter than n, in which case only the
// prefix carries real contents while the full n bytes are timed (used for
// synthetic payloads with real headers).
//
// The write becomes durable piecewise: up to tornChunks sub-ranges are
// applied to the media at evenly spaced points across the service interval,
// so a crash mid-persist leaves a prefix durable. Writes of AtomicUnit bytes
// or less are applied in a single step (failure-atomic).
func (d *Device) Persist(at sim.Time, addr int64, n int, data []byte, path Path) sim.Time {
	return d.PersistSegs(at, addr, n, data, nil, nil, path)
}

// PersistParts persists head ++ body as one n-byte write without the caller
// staging a joined copy: the redo log uses it to persist an entry header and
// the payload bytes taken directly from the wire buffer. Timing, queueing
// and torn-write semantics are identical to Persist of the joined image.
// Bytes beyond the segments (entry padding) are timed but never written, so
// they read back as zero — exactly what a freshly-zeroed joined image would
// have left. body must stay untouched until the returned completion time;
// heads of at most stageBytes are staged and may be reused immediately.
func (d *Device) PersistParts(at sim.Time, addr int64, n int, head, body []byte, path Path) sim.Time {
	return d.PersistSegs(at, addr, n, head, body, nil, path)
}

// PersistSegs is the shared persist core: contents are the concatenation
// head ++ body ++ unmaterialized-gap ++ tail with the tail ending at offset
// n. A nil head with nil body and tail is timing-only traffic (no content
// events at all, as before). Gap bytes are timed but never written; on
// reused ring space they keep whatever the previous lap left, which is safe
// exactly when no reader addresses them (redo-log entry padding). Tails of
// at most AtomicUnit bytes are staged; larger heads/tails alias the caller's
// buffer until completion.
func (d *Device) PersistSegs(at sim.Time, addr int64, n int, head, body, tail []byte, path Path) sim.Time {
	content := len(head) + len(body) + len(tail)
	if content > n {
		panic(fmt.Sprintf("pmem: content %d > n=%d", content, n))
	}
	if n < 0 {
		panic("pmem: negative persist size")
	}
	d.PersistOps++
	d.PersistBytes += int64(n)
	service := d.PersistCost(n, path)
	ch := d.channel(addr)
	start := at
	if nf := ch.NextFree(); nf > start {
		start = nf
	}
	end := ch.ReserveAt(at, service)

	epoch := d.epoch
	if head == nil && body == nil && tail == nil {
		return end
	}
	if tail != nil {
		d.SparseSkippedBytes += int64(n - content)
	}
	// Apply contents in chunks spread across [start, end].
	chunks := tornChunks
	if n <= AtomicUnit || n < chunks {
		chunks = 1
	}
	if chunks > 1 {
		d.TornWrites++
		d.noteTorn(start, end)
	}
	per := n / chunks
	off := 0
	for i := 0; i < chunks; i++ {
		sz := per
		if i == chunks-1 {
			sz = n - off
		}
		frac := float64(i+1) / float64(chunks)
		when := start.Add(time.Duration(float64(end.Sub(start)) * frac))
		c := d.newChunk()
		c.epoch, c.addr = epoch, addr+int64(off)
		c.head, c.body, c.tail = head, body, tail
		c.off, c.sz, c.n = off, sz, n
		if len(head) > 0 && len(head) <= stageBytes {
			c.head = c.stage[:copy(c.stage[:], head)]
		}
		if len(tail) > 0 && len(tail) <= AtomicUnit {
			c.tbuf = [AtomicUnit]byte{}
			c.tail = c.tbuf[:copy(c.tbuf[:], tail)]
		}
		d.K.Schedule(when, c.fn)
		off += sz
	}
	return end
}

// PersistWord persists one failure-atomic 8-byte little-endian word. It is
// Persist of an 8-byte buffer without the caller allocating one whose
// lifetime must span the persist — the redo log's control-pointer updates
// use it. Timing is identical to an 8-byte Persist.
func (d *Device) PersistWord(at sim.Time, addr int64, v uint64, path Path) sim.Time {
	d.PersistOps++
	d.PersistBytes += AtomicUnit
	service := d.PersistCost(AtomicUnit, path)
	ch := d.channel(addr)
	start := at
	if nf := ch.NextFree(); nf > start {
		start = nf
	}
	end := ch.ReserveAt(at, service)
	// One atomic chunk, applied at the end of the service interval (the
	// single-chunk schedule of persist3, with the word staged inline).
	when := start.Add(time.Duration(float64(end.Sub(start))))
	c := d.newChunk()
	c.epoch, c.addr = d.epoch, addr
	binary.LittleEndian.PutUint64(c.stage[:], v)
	c.head, c.body, c.tail = c.stage[:AtomicUnit], nil, nil
	c.off, c.sz, c.n = 0, AtomicUnit, AtomicUnit
	d.K.Schedule(when, c.fn)
	return end
}

// TornWindow is the service interval of an in-flight multi-chunk persist: a
// crash strictly inside (Start, End) leaves the write partially applied.
type TornWindow struct {
	Start, End sim.Time
}

// noteTorn records a tearable persist interval, pruning windows that have
// already completed so the slice tracks only the in-flight set.
func (d *Device) noteTorn(start, end sim.Time) {
	now := d.K.Now()
	live := d.inflight[:0]
	for _, w := range d.inflight {
		if w.End > now {
			live = append(live, w)
		}
	}
	d.inflight = append(live, TornWindow{Start: start, End: end})
}

// InflightTornWindows returns the service intervals of multi-chunk persists
// still in flight at time now. Crash-point sweeps use them to aim crashes
// inside torn-write intervals rather than only at event boundaries.
func (d *Device) InflightTornWindows(now sim.Time) []TornWindow {
	var out []TornWindow
	for _, w := range d.inflight {
		if w.End > now {
			out = append(out, w)
		}
	}
	return out
}

// PersistFunc persists like Persist from the current time and runs fn when
// the write is durable: one event at the completion time, for callers that
// run as kernel callbacks.
func (d *Device) PersistFunc(addr int64, n int, data []byte, path Path, fn func()) {
	now := d.K.Now()
	d.K.AfterFunc(d.Persist(now, addr, n, data, path).Sub(now), fn)
}

// Read schedules a media read of n bytes at addr and returns its completion
// time. The caller should sample contents (ReadBytes) at or after that time.
func (d *Device) Read(at sim.Time, addr int64, n int) sim.Time {
	d.ReadOps++
	c := sim.CostModel{Base: d.Params.ReadBase, BytesPerSec: d.Params.ReadBytesPerSec}
	return d.channel(addr).ReserveAt(at, c.Cost(n))
}

// ReadFunc times a media read of n bytes at addr from the current time and
// runs fn when it completes: one event, as ReadSync's sleep is. fn samples
// the contents (ReadBytesInto) then, not when the read is issued.
func (d *Device) ReadFunc(addr int64, n int, fn func()) {
	now := d.K.Now()
	d.K.AfterFunc(d.Read(now, addr, n).Sub(now), fn)
}

// ReadSync reads n bytes at addr, blocking p for the media latency, and
// returns the durable contents.
func (d *Device) ReadSync(p *sim.Proc, addr int64, n int) []byte {
	return d.ReadSyncInto(p, addr, make([]byte, n))
}

// ReadSyncInto reads len(dst) bytes at addr into dst, blocking p for the
// media latency, and returns dst. The alloc-free ReadSync for callers that
// reuse a scratch buffer (recovery header/commit probes).
func (d *Device) ReadSyncInto(p *sim.Proc, addr int64, dst []byte) []byte {
	end := d.Read(p.K.Now(), addr, len(dst))
	p.Sleep(end.Sub(p.K.Now()))
	return d.ReadBytesInto(addr, dst)
}

// WriteRaw applies bytes to the media with no simulated latency. It is for
// initialization and tests, not for the timed data path.
func (d *Device) WriteRaw(addr int64, b []byte) { d.mem.Write(addr, b) }

// ReadBytes returns the current durable contents of [addr, addr+n).
// Unwritten bytes read as zero.
func (d *Device) ReadBytes(addr int64, n int) []byte {
	return d.ReadBytesInto(addr, make([]byte, n))
}

// ReadBytesInto fills dst with the current durable contents of
// [addr, addr+len(dst)) and returns dst. Unwritten bytes read as zero. It
// is the alloc-free ReadBytes: callers on hot paths reuse a scratch buffer.
func (d *Device) ReadBytesInto(addr int64, dst []byte) []byte {
	return d.mem.ReadInto(addr, dst)
}

// Crash models a power failure: every in-flight persist is aborted (its
// not-yet-applied chunks are lost) while already-durable bytes survive.
// The media queue is drained because the device restarts idle.
func (d *Device) Crash() {
	d.epoch++
	d.inflight = nil
	for _, ch := range d.media {
		ch.Reset()
	}
}

// Epoch returns the crash epoch, used by recovery code to detect restarts.
func (d *Device) Epoch() int { return d.epoch }
