package pmpool

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// unitBytes is the durable-metadata granularity: one owner word per 64-byte
// unit of the data region. Slot base addresses are always unit-aligned
// (classes are powers of two >= 64), so one word per unit suffices.
const unitBytes = pmem.MinSlabClass

// ServerConfig sizes one pool server.
type ServerConfig struct {
	// PoolBytes is the data-region size (must be a multiple of SlabBytes).
	PoolBytes int64
	// SlabBytes is the slab size (power of two >= 64).
	SlabBytes int64
	// LeaseTTL bounds orphaned allocations: an id whose lease is not
	// renewed for this long is reclaimed. Zero disables reclamation.
	LeaseTTL time.Duration
	// ReclaimEvery is the reclaimer's scan period (default LeaseTTL/2).
	ReclaimEvery time.Duration
	// LeakMutant, when true, plants the seeded bug the crash-point sweep
	// must catch: Free skips the durable owner-word clear, so a crash after
	// an acked free resurrects the allocation from the stale metadata.
	LeakMutant bool
}

// DefaultServerConfig returns a small pool sized for tests and CI sweeps.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		PoolBytes:    64 * 4096,
		SlabBytes:    4096,
		LeaseTTL:     4 * time.Millisecond,
		ReclaimEvery: 1 * time.Millisecond,
	}
}

// allocInfo is the volatile index entry for one live allocation.
type allocInfo struct {
	addr  int64
	class int64
}

// Server is one pool node: a host whose PM holds the data region plus the
// durable metadata shadow, fronted by the durable-RPC transport. All
// volatile state (the slab allocator, the id index, the lease table) is
// rebuilt by Recover from the shadow after a crash.
type Server struct {
	H   *host.Host
	RPC *rpc.Server
	Cfg ServerConfig

	// Durable layout, all in H's PM: a class word per slab, an owner word
	// per unit of the data region, then the data region itself.
	classTable int64 // nslabs * 8 bytes
	ownerTable int64 // (PoolBytes/unitBytes) * 8 bytes
	dataBase   int64 // PoolBytes bytes

	// Volatile state (dropped on Crash, rebuilt by Recover).
	slabs *pmem.Slabs
	byID  map[uint64]allocInfo
	lease map[uint64]sim.Time
	down  bool
	stop  bool

	// req is the request the handler has in hand; see handle.
	req handled

	// Stats.
	Allocs, Frees, Renews int64
	Reclaimed             int64
	StaleDrops            int64
	Recoveries            int64
	Adopted               int64
}

// NewServer builds a pool server on h and mounts its handler on the durable
// transport. rcfg shapes the RPC deployment (the redo-log ring in
// particular); Workers is forced to 1 so per-id apply order equals log
// order.
func NewServer(h *host.Host, rcfg rpc.Config, cfg ServerConfig) *Server {
	if cfg.SlabBytes < unitBytes || cfg.SlabBytes&(cfg.SlabBytes-1) != 0 {
		panic(fmt.Sprintf("pmpool: slab size %d is not a power of two >= %d", cfg.SlabBytes, unitBytes))
	}
	if cfg.PoolBytes <= 0 || cfg.PoolBytes%cfg.SlabBytes != 0 {
		panic(fmt.Sprintf("pmpool: pool size %d is not a positive multiple of slab size %d", cfg.PoolBytes, cfg.SlabBytes))
	}
	if cfg.ReclaimEvery <= 0 {
		cfg.ReclaimEvery = cfg.LeaseTTL / 2
	}
	rcfg.Workers = 1
	s := &Server{H: h, Cfg: cfg}
	s.RPC = rpc.NewServer(h, nil, rcfg)
	s.RPC.Handler = s.handle
	s.req.init(s)

	nslabs := cfg.PoolBytes / cfg.SlabBytes
	units := cfg.PoolBytes / unitBytes
	var err error
	if s.classTable, err = h.PMArena.Alloc(nslabs * 8); err != nil {
		panic(err)
	}
	if s.ownerTable, err = h.PMArena.Alloc(units * 8); err != nil {
		panic(err)
	}
	if s.dataBase, err = h.PMArena.Alloc(cfg.PoolBytes); err != nil {
		panic(err)
	}
	s.slabs = pmem.NewSlabs(s.dataBase, cfg.PoolBytes, cfg.SlabBytes)
	s.byID = make(map[uint64]allocInfo)
	s.lease = make(map[uint64]sim.Time)

	if cfg.LeaseTTL > 0 {
		s.startReclaimer()
	}
	return s
}

// Slabs exposes the live allocator for consistency checks.
func (s *Server) Slabs() *pmem.Slabs { return s.slabs }

// Live returns the number of live allocations.
func (s *Server) Live() int { return len(s.byID) }

// Stop retires the reclaimer at its next tick so a figure kernel's event
// queue can drain.
func (s *Server) Stop() { s.stop = true }

// classWordAddr is the durable class word of slab i.
func (s *Server) classWordAddr(i int) int64 { return s.classTable + int64(i)*8 }

// ownerWordAddr is the durable owner word covering the unit at addr.
func (s *Server) ownerWordAddr(addr int64) int64 {
	return s.ownerTable + (addr-s.dataBase)/unitBytes*8
}

// metaApply runs metadata mutations — allocs and frees — one at a time as
// kernel callbacks. The handler owns one and the reclaimer another, since a
// reclaim can be mid-persist while the worker applies a request. The epoch
// the apply entered with, the id and its allocation wait in it between the
// word persists, beside continuations built once.
type metaApply struct {
	s     *Server
	epoch int
	id    uint64
	ai    allocInfo
	// done receives the result, inline or from the last persist's event.
	done func(ctrlResult)

	then                           func(ok bool) // the step after the word persist in flight
	persisted                      func()
	classDone, ownerDone, freeDone func(ok bool)
}

func (s *Server) newMetaApply(done func(ctrlResult)) *metaApply {
	a := &metaApply{s: s, done: done}
	a.persisted = func() {
		then := a.then
		a.then = nil
		then(a.s.H.PM.Epoch() == a.epoch)
	}
	a.classDone = a.classCommitted
	a.ownerDone = a.ownerCommitted
	a.freeDone = a.freeCommitted
	return a
}

// persistWord persists one failure-atomic metadata word over the CPU path
// and runs then once it is durable — the commit discipline every metadata
// mutation goes through. ok reports whether the word committed in the epoch
// the apply entered with: a crash while it persisted aborts the persist and
// resets the volatile state under the apply, which must then bail without
// touching anything (the request stays durable in the redo log and replays
// after recovery). A persist with nothing to wait for continues inline.
func (a *metaApply) persistWord(addr int64, v uint64, then func(ok bool)) {
	s := a.s
	if s.H.PM.Epoch() != a.epoch {
		then(false)
		return
	}
	now := s.H.K.Now()
	t := s.H.PM.PersistWord(now, addr, v, pmem.CPU)
	if d := t.Sub(now); d > 0 {
		a.then = then
		s.H.K.AfterFunc(d, a.persisted)
		return
	}
	then(true)
}

// alloc seats id. Idempotent by id: redo-log replay (or a client retry
// that raced a crash) re-applying an alloc that already committed returns
// the same address instead of leaking a second slot.
func (a *metaApply) alloc(epoch int, id uint64, size int64) {
	s := a.s
	if id == 0 {
		a.done(ctrlResult{status: statusBad}) // 0 is the free marker
		return
	}
	if ai, ok := s.byID[id]; ok {
		s.lease[id] = s.H.K.Now().Add(s.Cfg.LeaseTTL)
		a.done(ctrlResult{status: statusOK, addr: ai.addr, class: ai.class})
		return
	}
	if size <= 0 {
		a.done(ctrlResult{status: statusBad})
		return
	}
	c, err := pmem.SizeClass(size)
	if err != nil || c > s.Cfg.SlabBytes {
		a.done(ctrlResult{status: statusTooLarge})
		return
	}
	addr, err := s.slabs.Alloc(size)
	if err != nil {
		a.done(ctrlResult{status: statusFull})
		return
	}
	// Durable commit, single-word-atomic at every step: first the slab's
	// class word (idempotent — re-persisting the same class is harmless,
	// and a re-carved slab legitimately changes it), then the owner word,
	// which is the commit point. A crash between the two leaves a carved
	// class word with no owned slots, which recovery treats as a free slab.
	// A crash during either persist aborts the apply entirely: the logged
	// request replays post-recovery and commits then.
	a.epoch, a.id, a.ai = epoch, id, allocInfo{addr: addr, class: c}
	a.persistWord(s.classWordAddr(s.slabs.SlabIndex(addr)), uint64(c), a.classDone)
}

func (a *metaApply) classCommitted(ok bool) {
	if !ok {
		a.done(ctrlResult{status: statusBad})
		return
	}
	a.persistWord(a.s.ownerWordAddr(a.ai.addr), a.id, a.ownerDone)
}

func (a *metaApply) ownerCommitted(ok bool) {
	if !ok {
		a.done(ctrlResult{status: statusBad})
		return
	}
	s := a.s
	s.byID[a.id] = a.ai
	s.lease[a.id] = s.H.K.Now().Add(s.Cfg.LeaseTTL)
	s.Allocs++
	a.done(ctrlResult{status: statusOK, addr: a.ai.addr, class: a.ai.class})
}

// free releases id. Idempotent: a replayed or retried free of an id that is
// already gone succeeds without touching anything.
func (a *metaApply) free(epoch int, id uint64) {
	s := a.s
	ai, ok := s.byID[id]
	if !ok {
		a.done(ctrlResult{status: statusOK})
		return
	}
	a.epoch, a.id, a.ai = epoch, id, ai
	if s.Cfg.LeakMutant {
		// The seeded leak mutant skips the durable owner-word clear,
		// leaving a stale owner word for recovery to resurrect — the
		// sweep must catch it.
		a.freeCommitted(true)
		return
	}
	// The durable commit of the free: clear the owner word. A crash during
	// the persist aborts the apply: the logged free replays.
	a.persistWord(s.ownerWordAddr(ai.addr), 0, a.freeDone)
}

func (a *metaApply) freeCommitted(ok bool) {
	if !ok {
		a.done(ctrlResult{status: statusBad})
		return
	}
	s := a.s
	s.slabs.Free(a.ai.addr)
	delete(s.byID, a.id)
	delete(s.lease, a.id)
	s.Frees++
	a.done(ctrlResult{status: statusOK})
}

// handled is the request the handler has in hand and its continuations,
// built once. The pool's transport runs one worker (see NewServer), so
// requests reach the handler one at a time.
type handled struct {
	s     *Server
	epoch int
	req   *rpc.Request
	addr  int64 // the media address a write lands at or a read reads from
	// img is a read's response image; the PM contents land in its body.
	img, body []byte
	done      func(img []byte)

	meta                      *metaApply
	copied, written, readDone func()
}

func (h *handled) init(s *Server) {
	h.s = s
	h.meta = s.newMetaApply(h.answer)
	h.copied = func() {
		if h.s.H.PM.Epoch() != h.epoch {
			h.reply(nil) // crashed during the copy: the logged write replays instead
			return
		}
		req := h.req
		var data []byte
		if req.Payload != nil && len(req.Payload) >= req.Size {
			data = req.Payload[:req.Size]
		}
		h.s.H.PM.PersistFunc(h.addr, req.Size, data, pmem.CPU, h.written)
	}
	h.written = func() { h.reply(nil) }
	h.readDone = func() {
		h.s.H.PM.ReadBytesInto(h.addr, h.body)
		h.reply(h.img)
	}
}

// reply hands img to the worker; the handler is free again before it runs.
func (h *handled) reply(img []byte) {
	done := h.done
	h.req, h.img, h.body, h.done = nil, nil, nil, nil
	done(img)
}

// answer replies with a control result, encoded in place in its response
// image.
func (h *handled) answer(r ctrlResult) {
	img, body := rpc.NewReply(ctrlRespBytes)
	putResult(body, r)
	h.reply(img)
}

// handle is the transport's apply function. The request payload is already
// durable in the connection's redo log when it runs; everything here must
// leave the durable metadata consistent before calling done, because the
// log entry is consumed right after.
func (s *Server) handle(req *rpc.Request, done func(img []byte)) {
	if s.down {
		// Restarted but not yet recovered: decline so the transport leaves
		// the entry durable in the redo log instead of consuming it;
		// consuming here would discard an acked request forever.
		done(rpc.Declined)
		return
	}
	// The entry epoch pins this apply to the pre-crash world: handlers wait
	// on timed persists, and a crash landing in that window resets the
	// volatile state under them. Every step after a wait re-checks it and
	// bails.
	h := &s.req
	h.epoch, h.req, h.done = s.H.PM.Epoch(), req, done
	switch req.Op {
	case rpc.OpCtrl:
		s.handleCtrl(h)
	case rpc.OpWrite:
		s.handleWrite(h)
	case rpc.OpRead:
		s.handleRead(h)
	default:
		s.StaleDrops++
		h.reply(nil)
	}
}

func (s *Server) handleCtrl(h *handled) {
	b := h.req.Payload
	if len(b) < 16 {
		h.answer(ctrlResult{status: statusBad})
		return
	}
	switch b[0] {
	case ctrlAlloc:
		if len(b) < ctrlReqBytes {
			h.answer(ctrlResult{status: statusBad})
			return
		}
		id := binary.LittleEndian.Uint64(b[8:])
		size := int64(binary.LittleEndian.Uint64(b[16:]))
		h.meta.alloc(h.epoch, id, size)
	case ctrlFree:
		if len(b) < ctrlReqBytes {
			h.answer(ctrlResult{status: statusBad})
			return
		}
		h.meta.free(h.epoch, binary.LittleEndian.Uint64(b[8:]))
	case ctrlRenew:
		// The count is checked against the ids the record carries
		// without multiplying it, so a huge count cannot overflow past
		// the check.
		n := int(binary.LittleEndian.Uint64(b[8:]))
		if n < 0 || n > (len(b)-16)/8 {
			h.answer(ctrlResult{status: statusBad})
			return
		}
		exp := s.H.K.Now().Add(s.Cfg.LeaseTTL)
		for i := 0; i < n; i++ {
			id := binary.LittleEndian.Uint64(b[16+8*i:])
			if _, ok := s.byID[id]; ok {
				s.lease[id] = exp
			}
		}
		s.Renews++
		h.answer(ctrlResult{status: statusOK})
	default:
		h.answer(ctrlResult{status: statusBad})
	}
}

// handleWrite lands payload bytes in id's extent: CPU copy out of the log,
// then a persist into the data region. An unknown id (freed or reclaimed
// under a stale client) is counted and dropped — the transport has already
// acknowledged the payload's durability, and replay-after-crash of the same
// stale write must stay a no-op.
func (s *Server) handleWrite(h *handled) {
	req := h.req
	ai, ok := s.byID[req.Key]
	off := int64(req.ScanLen)
	if !ok || off < 0 || off+int64(req.Size) > ai.class {
		s.StaleDrops++
		h.reply(nil)
		return
	}
	h.addr = ai.addr + off
	s.H.MemcpyFunc(req.Size, h.copied)
}

// handleRead answers id's bytes at [off, off+Size), timed as a media read
// and read from PM straight into the response image's body.
func (s *Server) handleRead(h *handled) {
	req := h.req
	ai, ok := s.byID[req.Key]
	off := int64(req.ScanLen)
	if !ok || off < 0 || off+int64(req.Size) > ai.class {
		s.StaleDrops++
		h.reply(nil)
		return
	}
	h.addr = ai.addr + off
	h.img, h.body = rpc.NewReply(req.Size)
	s.H.PM.ReadFunc(h.addr, req.Size, h.readDone)
}

// reclaimer frees expired leases: the server-side bound on allocations
// orphaned by a vanished client. It runs as kernel callbacks: a tick every
// ReclaimEvery, and within a tick one free at a time. Expired ids are freed
// in sorted order so the slab state after reclamation is a deterministic
// function of the lease table.
type reclaimer struct {
	s       *Server
	meta    *metaApply
	now     sim.Time
	expired []uint64
	i       int // the next expired id to free

	arm, tick func()
}

// startReclaimer books the reclaimer's start at the current time, the slot
// a proc spawned now would start in; the start books the first tick.
func (s *Server) startReclaimer() {
	r := &reclaimer{s: s}
	r.meta = s.newMetaApply(r.freed)
	r.arm = func() { s.H.K.AfterFunc(s.Cfg.ReclaimEvery, r.tick) }
	r.tick = r.scan
	s.H.K.Schedule(s.H.K.Now(), r.arm)
}

// scan is a tick: it collects the leases expired by now and starts freeing
// them, or books the next tick.
func (r *reclaimer) scan() {
	s := r.s
	if s.stop {
		return
	}
	if s.down {
		r.arm()
		return
	}
	r.now = s.H.K.Now()
	r.expired = r.expired[:0]
	for id, exp := range s.lease {
		if r.now > exp {
			r.expired = append(r.expired, id)
		}
	}
	slices.Sort(r.expired)
	r.i = 0
	r.next()
}

// next frees the next id still expired, or books the next tick once none is
// left or the server crashed or stopped mid-scan (recovery re-grants fresh
// leases).
func (r *reclaimer) next() {
	s := r.s
	for r.i < len(r.expired) && !s.down && !s.stop {
		id := r.expired[r.i]
		r.i++
		if exp, ok := s.lease[id]; !ok || r.now <= exp {
			continue
		}
		r.meta.free(s.H.PM.Epoch(), id)
		return
	}
	r.arm()
}

// freed counts a reclaimed id, or ends the scan if the free did not commit
// (crashed mid-free: recovery re-grants fresh leases).
func (r *reclaimer) freed(res ctrlResult) {
	if res.status != statusOK {
		r.arm()
		return
	}
	r.s.Frees-- // count as reclaim, not client free
	r.s.Reclaimed++
	r.next()
}

// Crash fails the pool node: host volatile state, the transport work queue,
// and every volatile pool structure die; PM (data + metadata shadow + redo
// logs) survives. The caller owns restart choreography (Host.Restart, then
// Recover, then client Reestablish).
func (s *Server) Crash() {
	s.H.Crash()
	s.RPC.Crash()
	s.down = true
	s.slabs = nil
	s.byID = nil
	s.lease = nil
}

// Recover rebuilds the volatile pool state from the durable metadata
// shadow: a timed scan of the class table and the owner words of every
// carved slab, adopting each owned slot into a fresh slab allocator. A slab
// whose class word is set but which owns no slots is free (the alloc that
// carved it never committed, or its last slot was freed and the slab
// coalesced). Run it after Host.Restart and before the clients'
// Reestablish, so redo-log replay applies onto rebuilt state; replayed
// allocs and frees then dedup against exactly what was durable. A crash
// during the scan leaves the server down and returns rpc.ErrCrashed; run
// it again after the restart.
func (s *Server) Recover(p *sim.Proc) error {
	epoch := s.H.PM.Epoch()
	nslabs := int(s.Cfg.PoolBytes / s.Cfg.SlabBytes)
	unitsPerSlab := int(s.Cfg.SlabBytes / unitBytes)
	slabs := pmem.NewSlabs(s.dataBase, s.Cfg.PoolBytes, s.Cfg.SlabBytes)
	byID := make(map[uint64]allocInfo)
	classes := s.H.PM.ReadSync(p, s.classTable, nslabs*8)
	adopted := int64(0)
	for i := 0; i < nslabs; i++ {
		c := int64(binary.LittleEndian.Uint64(classes[i*8:]))
		if c == 0 {
			continue
		}
		// Owner words for this slab's units, one timed read per slab.
		words := s.H.PM.ReadSync(p, s.ownerTable+int64(i*unitsPerSlab)*8, unitsPerSlab*8)
		slabBase := s.dataBase + int64(i)*s.Cfg.SlabBytes
		for u := 0; u < unitsPerSlab; u++ {
			if int64(u)*unitBytes%c != 0 {
				continue // not a slot base for this class
			}
			id := binary.LittleEndian.Uint64(words[u*8:])
			if id == 0 {
				continue
			}
			addr := slabBase + int64(u)*unitBytes
			slabs.Adopt(addr, c)
			byID[id] = allocInfo{addr: addr, class: c}
			adopted++
		}
	}
	if s.H.PM.Epoch() != epoch {
		return rpc.ErrCrashed
	}
	s.slabs = slabs
	s.byID = byID
	// Recovered allocations get a fresh lease grace period: their owners
	// are reconnecting and could not renew while we were down.
	s.lease = make(map[uint64]sim.Time)
	exp := p.Now().Add(s.Cfg.LeaseTTL)
	for id := range byID {
		s.lease[id] = exp
	}
	s.Adopted += adopted
	s.Recoveries++
	s.down = false
	return nil
}

// OwnedIDs returns the durable owned-id set by scanning the metadata shadow
// directly (untimed). Crash checkers use it as the ground truth to compare
// against an acked-operation ledger.
func (s *Server) OwnedIDs() map[uint64]int64 {
	nslabs := int(s.Cfg.PoolBytes / s.Cfg.SlabBytes)
	unitsPerSlab := int(s.Cfg.SlabBytes / unitBytes)
	out := make(map[uint64]int64)
	classes := make([]byte, nslabs*8)
	s.H.PM.ReadBytesInto(s.classTable, classes)
	words := make([]byte, unitsPerSlab*8)
	for i := 0; i < nslabs; i++ {
		c := int64(binary.LittleEndian.Uint64(classes[i*8:]))
		if c == 0 {
			continue
		}
		s.H.PM.ReadBytesInto(s.ownerTable+int64(i*unitsPerSlab)*8, words)
		slabBase := s.dataBase + int64(i)*s.Cfg.SlabBytes
		for u := 0; u < unitsPerSlab; u++ {
			id := binary.LittleEndian.Uint64(words[u*8:])
			if id == 0 {
				continue
			}
			out[id] = slabBase + int64(u)*unitBytes
		}
	}
	return out
}
