package rpc

import (
	"encoding/binary"
	"fmt"

	"prdma/internal/host"
	"prdma/internal/pmem"
)

// Store is the server-side object store that every RPC system serves: a set
// of fixed-size objects in PM. Clients (realistically) cache the key→address
// index in their local DRAM; the store hands the mapping out at setup time.
type Store struct {
	H       *host.Host
	ObjSize int

	addrs map[uint64]int64

	// VersionAt, when non-negative, is the byte offset of a little-endian
	// uint32 version embedded in every write payload; the store then drops
	// writes older than the version it holds for the key. This is the
	// last-writer-wins guard: under loss or reordering, a retransmitted
	// stale write can arrive after a newer acknowledged write (even
	// in-order per QP, the two versions may ride different connections),
	// and an unconditional apply would silently regress the object. The
	// guard is volatile by design — a restarted replica rebuilds it while
	// replaying its durable redo logs in order. Negative (the default)
	// disables the guard: payloads stay fully opaque.
	VersionAt int

	vers map[uint64]uint32
	// verBuf is the scratch for the guard's PM version read-back.
	verBuf [4]byte

	// Reads/Writes/Scans count applied operations; StaleDrops counts
	// version-guarded writes rejected as older than the resident object.
	Reads, Writes, Scans int64
	StaleDrops           int64
	// PMFull counts operations dropped because the PM arena could not
	// allocate a home for a first-touch key: backpressure surfaced to the
	// deployment's stats instead of a panic aborting the simulation. The
	// durability contract is unaffected — the request's log entry is
	// durable and replays to the same counted drop.
	PMFull int64
}

// NewStore allocates n objects of objSize bytes in h's PM.
func NewStore(h *host.Host, n int, objSize int) (*Store, error) {
	s := &Store{H: h, ObjSize: objSize, addrs: make(map[uint64]int64, n), VersionAt: -1}
	for i := 0; i < n; i++ {
		a, err := h.PMArena.Alloc(int64(objSize))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.addrs[uint64(i)] = a
	}
	return s, nil
}

// Addr returns the PM address of key, allocating on first touch (inserts).
// Exhaustion panics; the apply paths use tryAddr, which degrades to a
// counted drop instead — external callers reach Addr only after Has.
func (s *Store) Addr(key uint64) int64 {
	a, ok := s.tryAddr(key)
	if !ok {
		panic("store: out of PM")
	}
	return a
}

// tryAddr is Addr without the panic: ok is false when the key is absent and
// the PM arena cannot fit another object, counting the drop in PMFull.
func (s *Store) tryAddr(key uint64) (int64, bool) {
	if a, ok := s.addrs[key]; ok {
		return a, true
	}
	a, err := s.H.PMArena.Alloc(int64(s.ObjSize))
	if err != nil {
		s.PMFull++
		return 0, false
	}
	s.addrs[key] = a
	return a, true
}

// Has reports whether key exists.
func (s *Store) Has(key uint64) bool {
	_, ok := s.addrs[key]
	return ok
}

// Crash drops the store's volatile state: the version watermarks are
// rebuilt from the durable redo logs as recovery replays them in order.
func (s *Store) Crash() { s.vers = nil }

// storeApply executes requests against the store as kernel callbacks, one
// at a time: a server worker (or Mojim's primary and mirror loop) owns one
// and hands it the request it has in hand. Writes copy the payload to the
// object's PM home and persist it over the CPU store+clwb path — the slow
// path the paper's durable RPCs take off the sender's critical path. Reads
// and scans that want contents answer with a response image (see
// newRespImage) whose body the PM contents land in; every other request
// answers nil, a header-only reply.
//
// Each blocking step of the apply is one scheduling call at the same
// instant a proc's sleep would take: a write is the memcpy charge, then the
// persist issued at its end, then a wait until durable; a read issues the
// media read and copies the contents at its completion. The request, the
// PM address and the image wait in the applier between steps, next to
// continuations built once, so an apply allocates nothing but the image.
type storeApply struct {
	s   *Store
	req *Request
	// done receives the apply's response image (nil: header only), inline
	// or from the apply's last event.
	done func(img []byte)

	addr int64
	img  []byte
	ver  uint32 // the write's version, while the guard reads PM back
	// Scan progress: the next object index, the object count, and the end
	// of the image's filled part.
	i, n, end int

	persist, answer, readDone, verRead, scanNext, scanRead func()
}

// newApply returns an applier for s that hands each apply's result to done.
func (s *Store) newApply(done func(img []byte)) *storeApply {
	a := &storeApply{s: s, done: done}
	a.persist = func() {
		a.s.H.PM.PersistFunc(a.addr, a.req.Size, a.req.Payload, pmem.CPU, a.answer)
	}
	a.answer = func() { a.finish(nil) }
	a.readDone = func() {
		a.s.H.PM.ReadBytesInto(a.addr, a.img[respHeaderBytes:])
		a.finish(a.img)
	}
	a.verRead = func() {
		st := a.s
		cur := binary.LittleEndian.Uint32(st.H.PM.ReadBytesInto(a.addr+int64(st.VersionAt), st.verBuf[:]))
		a.guarded(cur, cur != 0)
	}
	a.scanNext = a.scanStep
	a.scanRead = func() {
		size := a.req.Size
		a.s.H.PM.ReadBytesInto(a.addr, a.img[a.end:a.end+size])
		a.end += size
		a.scanStep()
	}
	return a
}

// apply executes req and hands its response image to done.
func (a *storeApply) apply(req *Request) {
	s := a.s
	a.req = req
	switch req.Op {
	case OpWrite:
		a.write()
	case OpScan:
		s.Scans++
		a.n = req.ScanLen
		if a.n <= 0 {
			a.n = 1
		}
		if req.Payload != nil {
			a.img = newRespImage(a.n * req.Size)
		}
		a.i, a.end = 0, respHeaderBytes
		a.scanStep()
	default:
		s.Reads++
		addr, ok := s.tryAddr(req.Key)
		if !ok || req.Payload == nil {
			// Synthetic traffic — or a first-touch read the exhausted
			// arena cannot home: pay the media latency, skip contents.
			s.readTiming(req.Size, a.answer)
			return
		}
		a.addr, a.img = addr, newRespImage(req.Size)
		s.H.PM.ReadFunc(addr, req.Size, a.readDone)
	}
}

// finish ends the apply: the applier is free again before done runs, so
// done may start the next apply at once.
func (a *storeApply) finish(img []byte) {
	a.req, a.img = nil, nil
	a.done(img)
}

// write applies the version guard (see VersionAt), then copies and
// persists the payload. The guard reports req stale when it carries an
// older version than the store holds for its key, and advances the
// watermark otherwise. Payloads too short to carry a version — including
// version zero, the unversioned-payload value — always apply.
//
// On a watermark miss the guard reads the resident object's embedded version
// back from PM. The volatile map dies with a crash, but the durable object
// does not: a stale entry replayed from one connection's redo log must not
// regress a newer acknowledged write that another connection applied — and
// durably consumed — before the crash. The read-back is paid once per key
// per incarnation; the map answers every later check.
func (a *storeApply) write() {
	s, req := a.s, a.req
	if s.VersionAt < 0 || len(req.Payload) < s.VersionAt+4 {
		a.copy()
		return
	}
	a.ver = binary.LittleEndian.Uint32(req.Payload[s.VersionAt:])
	if a.ver == 0 {
		a.copy()
		return
	}
	cur, ok := s.vers[req.Key]
	if !ok {
		if addr, exists := s.addrs[req.Key]; exists {
			a.addr = addr
			s.readTiming(4, a.verRead)
			return
		}
	}
	a.guarded(cur, ok)
}

// guarded finishes the version guard with the version the store holds for
// the key (ok: one is known).
func (a *storeApply) guarded(cur uint32, ok bool) {
	s := a.s
	if ok && a.ver < cur {
		s.StaleDrops++
		a.finish(nil)
		return
	}
	if s.vers == nil {
		s.vers = make(map[uint64]uint32)
	}
	s.vers[a.req.Key] = a.ver
	a.copy()
}

// copy homes the write's key and charges the CPU copy of the payload; the
// persist starts when the copy ends.
func (a *storeApply) copy() {
	s := a.s
	addr, ok := s.tryAddr(a.req.Key)
	if !ok {
		a.finish(nil) // out of PM: counted backpressure drop
		return
	}
	s.Writes++
	a.addr = addr
	s.H.MemcpyFunc(a.req.Size, a.persist)
}

// scanStep serves OpScan one object at a time: ScanLen sequential objects
// from Key, read into one response image in key order. Keys the PM arena
// cannot home are skipped, so the image is truncated to the objects
// actually read; a scan that reads none is a header-only reply.
func (a *storeApply) scanStep() {
	s, req := a.s, a.req
	if a.i == a.n {
		if a.end == respHeaderBytes {
			a.finish(nil)
		} else {
			a.finish(a.img[:a.end])
		}
		return
	}
	addr, ok := s.tryAddr(req.Key + uint64(a.i))
	a.i++
	if !ok || a.img == nil {
		s.readTiming(req.Size, a.scanNext)
		return
	}
	a.addr = addr
	s.H.PM.ReadFunc(addr, req.Size, a.scanRead)
}

// readTiming pays a media read's latency without materializing contents,
// then runs fn.
func (s *Store) readTiming(n int, fn func()) { s.H.PM.ReadFunc(0, n, fn) }
