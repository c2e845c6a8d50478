package pmpool

import (
	"encoding/binary"
	"fmt"
	"sort"
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
		h.K.Go(h.Name+"-pmpool-reclaim", s.reclaimLoop)
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

// persistWord persists one failure-atomic metadata word over the CPU path
// and blocks p until it is durable — the commit discipline every metadata
// mutation goes through. It reports whether the word committed in the
// epoch the handler entered with: a crash while p slept aborts the persist
// and resets the volatile state under the handler, which must then bail
// without touching anything (the request stays durable in the redo log and
// replays after recovery).
func (s *Server) persistWord(p *sim.Proc, epoch int, addr int64, v uint64) bool {
	if s.H.PM.Epoch() != epoch {
		return false
	}
	t := s.H.PM.PersistWord(p.Now(), addr, v, pmem.CPU)
	if d := t.Sub(p.Now()); d > 0 {
		p.Sleep(d)
	}
	return s.H.PM.Epoch() == epoch
}

// handle is the transport's apply function. The request payload is already
// durable in the connection's redo log when it runs; everything here must
// leave the durable metadata consistent before returning, because the log
// entry is consumed right after.
func (s *Server) handle(p *sim.Proc, req *rpc.Request) []byte {
	if s.down {
		// Restarted but not yet recovered: decline so the transport leaves
		// the entry durable in the redo log instead of consuming it. This
		// window is real — a second crash landing inside a client's
		// Reestablish makes its internal retry replay into a server whose
		// Recover has not rerun yet; consuming here would discard an acked
		// request forever.
		return rpc.Declined
	}
	// The entry epoch pins this apply to the pre-crash world: handlers yield
	// inside timed persists, and a crash landing in that window resets the
	// volatile state under them. Every yielding step re-checks it and bails.
	epoch := s.H.PM.Epoch()
	switch req.Op {
	case rpc.OpCtrl:
		return s.handleCtrl(p, epoch, req)
	case rpc.OpWrite:
		s.handleWrite(p, epoch, req)
		return nil
	case rpc.OpRead:
		return s.handleRead(p, req)
	}
	s.StaleDrops++
	return nil
}

func (s *Server) handleCtrl(p *sim.Proc, epoch int, req *rpc.Request) []byte {
	b := req.Payload
	if len(b) < 16 {
		return encodeResult(ctrlResult{status: statusBad})
	}
	switch b[0] {
	case ctrlAlloc:
		if len(b) < ctrlReqBytes {
			return encodeResult(ctrlResult{status: statusBad})
		}
		id := binary.LittleEndian.Uint64(b[8:])
		size := int64(binary.LittleEndian.Uint64(b[16:]))
		return encodeResult(s.applyAlloc(p, epoch, id, size))
	case ctrlFree:
		if len(b) < ctrlReqBytes {
			return encodeResult(ctrlResult{status: statusBad})
		}
		return encodeResult(s.applyFree(p, epoch, binary.LittleEndian.Uint64(b[8:])))
	case ctrlRenew:
		n := int(binary.LittleEndian.Uint64(b[8:]))
		if len(b) < 16+8*n {
			return encodeResult(ctrlResult{status: statusBad})
		}
		now := p.Now()
		for i := 0; i < n; i++ {
			id := binary.LittleEndian.Uint64(b[16+8*i:])
			if _, ok := s.byID[id]; ok {
				s.lease[id] = now.Add(s.Cfg.LeaseTTL)
			}
		}
		s.Renews++
		return encodeResult(ctrlResult{status: statusOK})
	}
	return encodeResult(ctrlResult{status: statusBad})
}

// applyAlloc seats id. Idempotent by id: redo-log replay (or a client retry
// that raced a crash) re-applying an alloc that already committed returns
// the same address instead of leaking a second slot.
func (s *Server) applyAlloc(p *sim.Proc, epoch int, id uint64, size int64) ctrlResult {
	if id == 0 {
		return ctrlResult{status: statusBad} // 0 is the free marker
	}
	if ai, ok := s.byID[id]; ok {
		s.lease[id] = p.Now().Add(s.Cfg.LeaseTTL)
		return ctrlResult{status: statusOK, addr: ai.addr, class: ai.class}
	}
	if size <= 0 {
		return ctrlResult{status: statusBad}
	}
	c, err := pmem.SizeClass(size)
	if err != nil || c > s.Cfg.SlabBytes {
		return ctrlResult{status: statusTooLarge}
	}
	addr, err := s.slabs.Alloc(size)
	if err != nil {
		return ctrlResult{status: statusFull}
	}
	// Durable commit, single-word-atomic at every step: first the slab's
	// class word (idempotent — re-persisting the same class is harmless,
	// and a re-carved slab legitimately changes it), then the owner word,
	// which is the commit point. A crash between the two leaves a carved
	// class word with no owned slots, which recovery treats as a free slab.
	// A crash during either persist aborts the apply entirely: the logged
	// request replays post-recovery and commits then.
	if !s.persistWord(p, epoch, s.classWordAddr(s.slabs.SlabIndex(addr)), uint64(c)) {
		return ctrlResult{status: statusBad}
	}
	if !s.persistWord(p, epoch, s.ownerWordAddr(addr), id) {
		return ctrlResult{status: statusBad}
	}
	s.byID[id] = allocInfo{addr: addr, class: c}
	s.lease[id] = p.Now().Add(s.Cfg.LeaseTTL)
	s.Allocs++
	return ctrlResult{status: statusOK, addr: addr, class: c}
}

// applyFree releases id. Idempotent: a replayed or retried free of an id
// that is already gone succeeds without touching anything.
func (s *Server) applyFree(p *sim.Proc, epoch int, id uint64) ctrlResult {
	ai, ok := s.byID[id]
	if !ok {
		return ctrlResult{status: statusOK}
	}
	if !s.Cfg.LeakMutant {
		// The durable commit of the free: clear the owner word. The seeded
		// leak mutant skips exactly this persist, leaving a stale owner
		// word for recovery to resurrect — the sweep must catch it. A crash
		// during the persist aborts the apply: the logged free replays.
		if !s.persistWord(p, epoch, s.ownerWordAddr(ai.addr), 0) {
			return ctrlResult{status: statusBad}
		}
	}
	s.slabs.Free(ai.addr)
	delete(s.byID, id)
	delete(s.lease, id)
	s.Frees++
	return ctrlResult{status: statusOK}
}

// handleWrite lands payload bytes in id's extent: CPU copy out of the log,
// then a synchronous persist into the data region. An unknown id (freed or
// reclaimed under a stale client) is counted and dropped — the transport
// has already acknowledged the payload's durability, and replay-after-crash
// of the same stale write must stay a no-op.
func (s *Server) handleWrite(p *sim.Proc, epoch int, req *rpc.Request) {
	ai, ok := s.byID[req.Key]
	off := int64(req.ScanLen)
	if !ok || off < 0 || off+int64(req.Size) > ai.class {
		s.StaleDrops++
		return
	}
	s.H.Memcpy(p, req.Size)
	if s.H.PM.Epoch() != epoch {
		return // crashed during the copy: the logged write replays instead
	}
	var data []byte
	if req.Payload != nil && len(req.Payload) >= req.Size {
		data = req.Payload[:req.Size]
	}
	s.H.PM.PersistSync(p, ai.addr+off, req.Size, data, pmem.CPU)
}

// handleRead returns id's bytes at [off, off+Size), timed as a media read.
func (s *Server) handleRead(p *sim.Proc, req *rpc.Request) []byte {
	ai, ok := s.byID[req.Key]
	off := int64(req.ScanLen)
	if !ok || off < 0 || off+int64(req.Size) > ai.class {
		s.StaleDrops++
		return nil
	}
	return s.H.PM.ReadSync(p, ai.addr+off, req.Size)
}

// reclaimLoop frees expired leases: the server-side bound on allocations
// orphaned by a vanished client. Expired ids are freed in sorted order so
// the slab state after reclamation is a deterministic function of the
// lease table.
func (s *Server) reclaimLoop(p *sim.Proc) {
	for {
		p.Sleep(s.Cfg.ReclaimEvery)
		if s.stop {
			return
		}
		if s.down {
			continue
		}
		now := p.Now()
		var expired []uint64
		for id, exp := range s.lease {
			if now > exp {
				expired = append(expired, id)
			}
		}
		if len(expired) == 0 {
			continue
		}
		sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
		for _, id := range expired {
			if s.down || s.stop {
				break // crashed mid-scan: recovery re-grants fresh leases
			}
			if exp, ok := s.lease[id]; !ok || now <= exp {
				continue
			}
			if res := s.applyFree(p, s.H.PM.Epoch(), id); res.status != statusOK {
				break // crashed mid-free: recovery re-grants fresh leases
			}
			s.Frees-- // count as reclaim, not client free
			s.Reclaimed++
		}
	}
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
// allocs and frees then dedup against exactly what was durable.
func (s *Server) Recover(p *sim.Proc) {
	for {
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
			continue // crashed again mid-scan: start over
		}
		s.slabs = slabs
		s.byID = byID
		// Recovered allocations get a fresh lease grace period: their
		// owners are reconnecting and could not renew while we were down.
		s.lease = make(map[uint64]sim.Time)
		exp := p.Now().Add(s.Cfg.LeaseTTL)
		for id := range byID {
			s.lease[id] = exp
		}
		s.Adopted += adopted
		s.Recoveries++
		s.down = false
		return
	}
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
