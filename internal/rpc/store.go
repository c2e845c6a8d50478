package rpc

import (
	"encoding/binary"
	"fmt"

	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/sim"
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

// Len returns the object count.
func (s *Store) Len() int { return len(s.addrs) }

// ApplyFromBuffer executes req whose payload sits in a volatile message
// buffer: the traditional-RPC receive path. Writes copy the payload to the
// object's PM home and persist it over the CPU store+clwb path — the slow
// path the paper's durable RPCs bypass. Reads and scans that want contents
// return a response image (see newRespImage) with the object bytes read
// from PM straight into its body and the header left for the responder;
// every other request returns nil, a header-only reply.
func (s *Store) ApplyFromBuffer(p *sim.Proc, req *Request) []byte {
	switch req.Op {
	case OpWrite:
		if s.stale(p, req) {
			s.StaleDrops++
			return nil
		}
		addr, ok := s.tryAddr(req.Key)
		if !ok {
			return nil // out of PM: counted backpressure drop
		}
		s.Writes++
		s.H.Memcpy(p, req.Size)
		s.H.PM.PersistSync(p, addr, req.Size, req.Payload, pmem.CPU)
		return nil
	case OpScan:
		s.Scans++
		return s.readRange(p, req)
	default:
		s.Reads++
		addr, ok := s.tryAddr(req.Key)
		if !ok || req.Payload == nil {
			// Synthetic traffic — or a first-touch read the exhausted
			// arena cannot home: pay the media latency, skip contents.
			s.readTiming(p, req.Size)
			return nil
		}
		img := newRespImage(req.Size)
		s.H.PM.ReadSyncInto(p, addr, img[respHeaderBytes:])
		return img
	}
}

// ApplyFromLog executes req whose payload is already durable in the redo
// log (the durable-RPC path): writes copy log→object and persist; the
// request was complete from the sender's perspective long before this runs.
// It returns what ApplyFromBuffer does: a response image for reads and
// scans that want contents, nil otherwise.
func (s *Store) ApplyFromLog(p *sim.Proc, req *Request) []byte {
	// The mechanics are identical to ApplyFromBuffer — what differs is
	// *when* it runs (off the sender's critical path) and that the payload
	// source is durable.
	return s.ApplyFromBuffer(p, req)
}

// stale applies the version guard (see VersionAt): it reports whether req
// carries an older version than the store holds for its key, advancing the
// watermark otherwise. Payloads too short to carry a version — including
// version zero, the unversioned-payload value — always apply.
//
// On a watermark miss the guard reads the resident object's embedded version
// back from PM. The volatile map dies with a crash, but the durable object
// does not: a stale entry replayed from one connection's redo log must not
// regress a newer acknowledged write that another connection applied — and
// durably consumed — before the crash. The read-back is paid once per key
// per incarnation; the map answers every later check.
func (s *Store) stale(p *sim.Proc, req *Request) bool {
	if s.VersionAt < 0 || len(req.Payload) < s.VersionAt+4 {
		return false
	}
	ver := binary.LittleEndian.Uint32(req.Payload[s.VersionAt:])
	if ver == 0 {
		return false
	}
	cur, ok := s.vers[req.Key]
	if !ok {
		if addr, exists := s.addrs[req.Key]; exists {
			s.readTiming(p, 4)
			cur = binary.LittleEndian.Uint32(s.H.PM.ReadBytesInto(addr+int64(s.VersionAt), s.verBuf[:]))
			ok = cur != 0
		}
	}
	if ok && ver < cur {
		return true
	}
	if s.vers == nil {
		s.vers = make(map[uint64]uint32)
	}
	s.vers[req.Key] = ver
	return false
}

// Crash drops the store's volatile state: the version watermarks are
// rebuilt from the durable redo logs as recovery replays them in order.
func (s *Store) Crash() { s.vers = nil }

// readRange serves OpScan: ScanLen sequential objects from Key, read into
// one response image in key order. Keys the PM arena cannot home are
// skipped, so the image is truncated to the objects actually read; a scan
// that reads none is a header-only reply.
func (s *Store) readRange(p *sim.Proc, req *Request) []byte {
	n := req.ScanLen
	if n <= 0 {
		n = 1
	}
	var img []byte
	if req.Payload != nil {
		img = newRespImage(n * req.Size)
	}
	end := respHeaderBytes
	for i := 0; i < n; i++ {
		addr, ok := s.tryAddr(req.Key + uint64(i))
		if !ok || img == nil {
			s.readTiming(p, req.Size)
			continue
		}
		s.H.PM.ReadSyncInto(p, addr, img[end:end+req.Size])
		end += req.Size
	}
	if end == respHeaderBytes {
		return nil
	}
	return img[:end]
}

// readTiming pays a media read's latency without materializing contents.
func (s *Store) readTiming(p *sim.Proc, n int) {
	end := s.H.PM.Read(p.K.Now(), 0, n)
	p.Sleep(end.Sub(p.K.Now()))
}
