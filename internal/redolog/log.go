// Package redolog implements the paper's persistent redo log (§4.2): a ring
// buffer in PM that makes RPCs durable before they are processed and
// recoverable after a crash without re-sending data from the client.
//
// Entry layout (all fields little-endian):
//
//	offset 0  : seq     (8 bytes)
//	offset 8  : op|len  (8 bytes: op in the top byte, payload length below)
//	offset 16 : payload (len bytes, padded to 8)
//	tail      : commit  (8 bytes: magic ^ seq ^ oplen)
//
// The commit word sits at the highest address of the entry. Because the PM
// model persists a write front-to-back, persisting the whole entry with one
// DMA guarantees the paper's "data is always persisted before the RPC
// operator" invariant: a crash can leave a torn payload, but then the commit
// word is absent and recovery rejects the entry. The commit word itself is
// 8 bytes and persists atomically. The PM media services persists FIFO, so
// if entry k is torn, no entry after k can be complete — recovery therefore
// never drops an acknowledged entry by stopping at the first tear.
//
// The ring head (consumption frontier) advances strictly in FIFO order even
// though workers may finish out of order; two durable 8-byte words at the
// region base record the head offset and the lowest-live sequence (floor).
// Both may lag the volatile truth by the in-flight persist window, which
// recovery tolerates: it replays at-least-once from a conservative frontier
// and skips entries below the floor.
//
// Three writers share this format, matching the paper's durable RPC
// families: the remote sender (WFlush-RPC writes fully formed entries),
// the local NIC (native SFlush reserves space and persists autonomously),
// and the local CPU (RFlush copies from the message buffer).
package redolog

import (
	"encoding/binary"
	"errors"
	"fmt"

	"prdma/internal/pmem"
	"prdma/internal/sim"
)

const (
	// HeaderBytes precede the payload; CommitBytes follow it.
	HeaderBytes = 16
	CommitBytes = 8
	// Overhead is the per-entry metadata total.
	Overhead = HeaderBytes + CommitBytes

	commitMagic = 0x52444C4F47434D54 // "RDLOGCMT"

	// ctrlBytes is the durable control area at the ring base:
	// [headOff 8][floorSeq 8].
	ctrlBytes = 16
)

// EntrySize returns the ring footprint of an entry with an n-byte payload.
func EntrySize(n int) int64 { return int64(HeaderBytes + pad8(n) + CommitBytes) }

func pad8(n int) int { return (n + 7) &^ 7 }

func max0(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}

// Entry is a decoded log record.
type Entry struct {
	Seq     uint64
	Op      byte
	Len     int
	Payload []byte
	// Addr is the entry's PM address.
	Addr int64
}

// PutHeader writes the 16-byte entry header (seq, op|len) into b.
func PutHeader(b []byte, seq uint64, op byte, n int) {
	binary.LittleEndian.PutUint64(b[0:], seq)
	binary.LittleEndian.PutUint64(b[8:], uint64(op)<<56|uint64(uint32(n)))
}

// Commit returns the 8-byte commit word of an entry.
func Commit(seq uint64, op byte, n int) uint64 {
	oplen := uint64(op)<<56 | uint64(uint32(n))
	return commitMagic ^ seq ^ oplen
}

// PutCommit writes the commit word into b (8 bytes).
func PutCommit(b []byte, seq uint64, op byte, n int) {
	binary.LittleEndian.PutUint64(b, Commit(seq, op, n))
}

// rec tracks one in-ring entry (or wrap slack) in the volatile FIFO window.
type rec struct {
	seq      uint64 // 0 for wrap slack
	off      int64
	foot     int64
	consumed bool
}

// Log is one connection's ring buffer.
type Log struct {
	K  *sim.Kernel
	PM *pmem.Device

	// Trace, when set, receives append/consume/recover events.
	Trace func(cat, format string, args ...interface{})

	// OnRecover, when set, observes every Recover scan right after the
	// volatile state is rebuilt. The crashcheck harness uses it to assert
	// replay-order and accounting invariants on each recovery.
	OnRecover func(RecoverInfo)

	base int64 // region base (control area)
	lo   int64 // first entry byte
	size int64 // entry area capacity

	// Volatile state (rebuilt by Recover).
	tail    int64 // next append offset
	used    int64
	nextSeq uint64
	window  []*rec // FIFO window of in-ring entries
	bySeq   map[uint64]*rec

	// durUsed is the byte span from the durable head (the last head offset
	// whose control-word persist completed) to the tail. Reserve must keep
	// this — not just used — within capacity: space reclaimed in DRAM but
	// not yet durably recorded may still be scanned by recovery, so
	// overwriting it would make a crash lose acknowledged entries.
	durUsed int64
	// freedSinceCtrl accumulates reclaimed bytes between control persists;
	// each persist moves its accumulated total out of durUsed on completion.
	freedSinceCtrl int64
	// gen invalidates scheduled durUsed updates across a Recover.
	gen int

	// CtrlEvery batches the durable control-pointer update: the head/floor
	// words are persisted once per CtrlEvery head advances rather than on
	// every consume. A lazier pointer only widens the at-least-once replay
	// window after a crash — it never loses entries. Zero means 16.
	CtrlEvery int
	ctrlSkew  int

	// CtrlPersist, when set, replaces the direct PM word persists of the
	// control area. Engine mode uses it: the log's accounting runs on the
	// client's partition while the ring's PM device lives on the server's,
	// so the hook forwards (headOff, floor) there as a cross-partition
	// message and arranges for done to run back on l.K once both words are
	// durable. done must be called exactly once; the durable-span
	// accounting (durUsed) is released only when it fires.
	CtrlPersist func(at sim.Time, headOff int64, floor uint64, done func())

	// Appends / Consumes / Recovered count operations for introspection.
	Appends   int64
	Consumes  int64
	Recovered int64

	// Scratch buffers for the alloc-free append and recovery-probe paths.
	// Heads and commit words are staged by the device at schedule time, so
	// these are reusable as soon as the persist call returns.
	hdr  [HeaderBytes]byte
	cmt  [CommitBytes]byte
	ctrl [ctrlBytes]byte
}

// New manages a ring over [base, base+size) of pm.
func New(k *sim.Kernel, pm *pmem.Device, base, size int64) *Log {
	if size < ctrlBytes+Overhead {
		panic("redolog: region too small")
	}
	return &Log{
		K: k, PM: pm, base: base, lo: base + ctrlBytes,
		size: size - ctrlBytes, nextSeq: 1,
		bySeq: make(map[uint64]*rec),
	}
}

// Base returns the region base address.
func (l *Log) Base() int64 { return l.base }

// Outstanding returns the number of appended-but-unconsumed entries, the
// quantity the paper's back-pressure threshold watches.
func (l *Log) Outstanding() int { return len(l.bySeq) }

// NextSeq allocates a sequence number with no ring footprint. Non-mutating
// requests use it: they share the connection's FIFO sequence space (response
// matching, ring-slot rotation) but never occupy log bytes — a reserved slot
// that is never written would read as garbage to the recovery scan and make
// it stop early, losing acknowledged entries behind it. In-log sequences are
// therefore gapped; Recover accepts any strictly-increasing run.
func (l *Log) NextSeq() uint64 {
	seq := l.nextSeq
	l.nextSeq++
	return seq
}

// UsedBytes returns the occupied ring capacity.
func (l *Log) UsedBytes() int64 { return l.used }

// ErrEntryTooLarge is the error Reserve returns for an entry larger than
// the whole ring. Unlike a full ring, no amount of waiting makes room.
var ErrEntryTooLarge = errors.New("redolog: entry exceeds ring capacity")

// Reserve allocates ring space for an n-byte-payload entry, assigns it the
// next sequence number, and returns (seq, PM address). It fails when the
// ring is full — the caller throttles, per §4.2 — and, for good, with
// ErrEntryTooLarge. Entries never wrap: if the tail room is insufficient
// the cursor jumps to the ring start and the skipped slack is reclaimed
// with its FIFO turn.
func (l *Log) Reserve(n int) (uint64, int64, error) {
	foot := EntrySize(n)
	if foot > l.size {
		return 0, 0, fmt.Errorf("%w: %d-byte entry, %d-byte ring", ErrEntryTooLarge, foot, l.size)
	}
	slack := int64(-1) // -1: no wrap needed
	if tailroom := l.size - l.tail; tailroom < foot {
		slack = tailroom
	}
	// Capacity is gated on the durable span, not the volatile one: bytes
	// between the durable head and the tail may still be rescanned after a
	// crash, so they cannot be overwritten until a control persist lands.
	if l.durUsed+foot+max0(slack) > l.size {
		if l.freedSinceCtrl > 0 {
			// Space exists but its reclamation is not durable yet: expedite
			// the control persist so the caller's retry can succeed.
			l.persistCtrl(l.K.Now())
		}
		return 0, 0, fmt.Errorf("redolog: ring full (%d/%d durable-span bytes, %d outstanding)", l.durUsed, l.size, len(l.bySeq))
	}
	if slack >= 0 {
		if slack > 0 {
			l.window = append(l.window, &rec{off: l.tail, foot: slack, consumed: true})
			l.used += slack
			l.durUsed += slack
		}
		l.tail = 0
	}
	seq := l.nextSeq
	l.nextSeq++
	r := &rec{seq: seq, off: l.tail, foot: foot}
	l.window = append(l.window, r)
	l.bySeq[seq] = r
	l.tail += foot
	l.used += foot
	l.durUsed += foot
	l.Appends++
	return seq, l.lo + r.off, nil
}

// AppendNIC reserves space and persists a fully formed entry over the DMA
// path starting at time at, returning (seq, durable-completion time): what
// the NIC does for a WFlush/SFlush request, with no CPU involved. The entry
// is persisted as three segments — header scratch, payload taken directly
// from the caller's (wire) buffer, commit scratch — so no joined image is
// ever staged; payload must stay untouched until the returned completion
// time. A payload shorter than n (synthetic benchmark traffic)
// materializes only the header and available bytes — no commit word — so
// such entries are, by design, not recoverable.
func (l *Log) AppendNIC(at sim.Time, op byte, n int, payload []byte) (uint64, sim.Time, error) {
	if len(payload) > n {
		panic(fmt.Sprintf("redolog: payload %d != n %d", len(payload), n))
	}
	seq, addr, err := l.Reserve(n)
	if err != nil {
		return 0, 0, err
	}
	foot := int(EntrySize(n))
	PutHeader(l.hdr[:], seq, op, n)
	if len(payload) < n {
		return seq, l.PM.PersistParts(at, addr, foot, l.hdr[:], payload, pmem.DMA), nil
	}
	PutCommit(l.cmt[:], seq, op, n)
	return seq, l.PM.PersistSegs(at, addr, foot, l.hdr[:], payload, l.cmt[:], pmem.DMA), nil
}

// Consume marks seq processed. Space is reclaimed — and the durable head
// advanced — only over the contiguous consumed prefix, so out-of-order
// worker completion is safe. Returns the completion time of the control
// persist (callers rarely wait: consumption is off the critical path).
func (l *Log) Consume(at sim.Time, seq uint64) sim.Time {
	r, ok := l.bySeq[seq]
	if !ok {
		panic(fmt.Sprintf("redolog: consume of unknown seq %d", seq))
	}
	r.consumed = true
	delete(l.bySeq, seq)
	l.Consumes++

	advanced := false
	for len(l.window) > 0 && l.window[0].consumed {
		l.used -= l.window[0].foot
		l.freedSinceCtrl += l.window[0].foot
		l.window = l.window[1:]
		advanced = true
	}
	if !advanced {
		return at
	}
	// Lazy control update: persist the head/floor words only every
	// CtrlEvery head advances, plus whenever the window fully drains. A
	// stale pointer merely widens the at-least-once replay window after a
	// crash; it never loses entries.
	every := l.CtrlEvery
	if every <= 0 {
		every = 16
	}
	l.ctrlSkew++
	if l.ctrlSkew < every && len(l.window) > 0 {
		return at
	}
	l.ctrlSkew = 0
	return l.persistCtrl(at)
}

// persistCtrl persists the current head/floor words starting at time at and
// returns the later completion. The bytes freed since the previous control
// persist leave the durable span only when this persist completes — until
// then a crash would rescan them.
func (l *Log) persistCtrl(at sim.Time) sim.Time {
	headOff := l.tail
	floor := l.nextSeq
	if len(l.window) > 0 {
		headOff = l.window[0].off
		floor = l.window[0].seq
	}
	freed := l.freedSinceCtrl
	l.freedSinceCtrl = 0
	gen := l.gen
	settle := func() {
		if freed > 0 && l.gen == gen {
			l.durUsed -= freed
		}
	}
	if l.CtrlPersist != nil {
		// Engine mode: the PM device lives on another partition; the hook
		// performs the word persists there and calls settle back on this
		// kernel when they complete. The local completion time is unknown
		// (it is at plus a cross-partition round trip), so return `at`;
		// durable-span accounting waits for settle either way.
		l.CtrlPersist(at, headOff, floor, settle)
		return at
	}
	// Two atomic 8-byte persists; each may individually lag after a crash,
	// which recovery tolerates (at-least-once replay).
	t1 := l.PM.PersistWord(at, l.base, uint64(headOff), pmem.CPU)
	t2 := l.PM.PersistWord(at, l.base+8, floor, pmem.CPU)
	if t1 > t2 {
		t2 = t1
	}
	if freed > 0 {
		l.K.Schedule(t2, settle)
	}
	return t2
}

// RecoverInfo summarizes one Recover scan for observers.
type RecoverInfo struct {
	// Entries are the recovered records, in replay (FIFO seq) order.
	Entries []Entry
	// Floor is the durable floor the scan honored; HeadOff the durable head
	// offset it started from.
	Floor   uint64
	HeadOff int64
}

// Recover scans the ring after a crash and returns the committed entries at
// or above the durable floor, in FIFO order — the RPCs that were durable but
// not durably consumed. It restores the volatile cursors so the log can
// continue, re-registering recovered entries as live, then persists a fresh
// control checkpoint so a subsequent crash rescans from an exact frontier.
// p pays media-read latency for the scan and the checkpoint persist.
func (l *Log) Recover(p *sim.Proc) []Entry {
	ctrl := l.PM.ReadSyncInto(p, l.base, l.ctrl[:])
	headOff := int64(binary.LittleEndian.Uint64(ctrl[0:]))
	floor := binary.LittleEndian.Uint64(ctrl[8:])
	if floor == 0 {
		floor = 1
	}
	if headOff < 0 || headOff >= l.size {
		headOff = 0
	}

	l.gen++ // invalidate scheduled durable-span updates from before the crash
	l.window = nil
	l.bySeq = make(map[uint64]*rec)
	l.used = 0
	l.tail = headOff
	l.nextSeq = floor
	l.ctrlSkew = 0

	var out []Entry
	off := headOff
	expect := uint64(0)
	wrapped := false
	// Ring-end slack is only charged to the used-span once a valid wrapped
	// entry confirms the writer actually wrapped; a probe of offset 0 that
	// finds nothing must not consume capacity.
	pendSlackOff := int64(-1)
	wrapTo0 := func() {
		if expect != 0 {
			pendSlackOff = off
		}
		wrapped = true
		off = 0
	}
	for {
		if l.size-off < Overhead {
			if wrapped {
				break
			}
			wrapTo0()
			continue
		}
		hb := l.PM.ReadSyncInto(p, l.lo+off, l.hdr[:])
		seq := binary.LittleEndian.Uint64(hb[0:])
		oplen := binary.LittleEndian.Uint64(hb[8:])
		n := int(uint32(oplen))
		foot := EntrySize(n)
		valid := seq != 0 && foot <= l.size-off
		if valid {
			cb := l.PM.ReadSyncInto(p, l.lo+off+foot-8, l.cmt[:])
			valid = binary.LittleEndian.Uint64(cb) == commitMagic^seq^oplen
		}
		if !valid {
			// Either the torn frontier of the log (stop) or a head that
			// does not sit on a live entry: lazy control persists can
			// leave the durable head pointing into wrap slack, in which
			// case the surviving entries sit at the ring start. Probe
			// offset 0 once before giving up — the probe cannot resurrect
			// stale records because everything physically below the
			// durable head is below the durable floor and gets skipped.
			if !wrapped {
				wrapTo0()
				continue
			}
			break
		}
		if seq < floor {
			// Durably consumed on a previous lap: walk over it.
			off += foot
			continue
		}
		if seq < expect {
			break // stale entry from an older lap: frontier reached
		}
		// Sequences must strictly increase but need not be contiguous:
		// non-mutating requests consume sequence numbers without writing
		// log entries (see NextSeq).
		expect = seq + 1
		if pendSlackOff >= 0 {
			if slack := l.size - pendSlackOff; slack > 0 {
				l.window = append(l.window, &rec{off: pendSlackOff, foot: slack, consumed: true})
				l.used += slack
			}
			pendSlackOff = -1
		}
		payload := l.PM.ReadSync(p, l.lo+off+HeaderBytes, n)
		out = append(out, Entry{
			Seq: seq, Op: byte(oplen >> 56), Len: n,
			Payload: payload, Addr: l.lo + off,
		})
		r := &rec{seq: seq, off: off, foot: foot}
		l.window = append(l.window, r)
		l.bySeq[seq] = r
		l.used += foot
		l.tail = off + foot
		if l.nextSeq <= seq {
			l.nextSeq = seq + 1
		}
		off += foot
	}
	// Wrap slack positioned behind the first surviving entry is dead space
	// the checkpoint steps over; drop it so the head lands on a real entry.
	for len(l.window) > 0 && l.window[0].consumed {
		l.used -= l.window[0].foot
		l.window = l.window[1:]
	}
	// The durable span still stretches from the pre-crash head to the
	// rebuilt tail until the recovery checkpoint below lands; account for
	// the gap so concurrent reservations cannot overwrite the old frontier.
	span := l.tail - headOff
	for span < l.used {
		span += l.size
	}
	l.durUsed = span
	l.freedSinceCtrl = span - l.used
	l.Recovered += int64(len(out))
	if l.Trace != nil {
		first, last := uint64(0), uint64(0)
		if len(out) > 0 {
			first, last = out[0].Seq, out[len(out)-1].Seq
		}
		l.Trace("redolog", "recover: %d entries (seq %d..%d), floor=%d headOff=%d", len(out), first, last, floor, headOff)
	}
	if l.OnRecover != nil {
		l.OnRecover(RecoverInfo{Entries: out, Floor: floor, HeadOff: headOff})
	}
	// Recovery checkpoint: persist the exact rebuilt frontier. A crash
	// before it completes simply rescans from the old conservative head.
	done := l.persistCtrl(p.K.Now())
	p.Sleep(done.Sub(p.K.Now()))
	return out
}

// CheckAccounting verifies the ring's cursors against a from-scratch
// reconstruction from the FIFO window: contiguous offsets (mod one wrap),
// used equal to the sum of window footprints, a tail at the end of the last
// record, a live map in bijection with unconsumed records, and sequence
// numbers monotone below nextSeq. It returns the first violation found.
func (l *Log) CheckAccounting() error {
	var used int64
	live := 0
	lastSeq := uint64(0)
	for i, r := range l.window {
		if r.foot <= 0 || r.off < 0 || r.off+r.foot > l.size {
			return fmt.Errorf("redolog: window[%d] footprint [%d,+%d) outside ring of %d", i, r.off, r.foot, l.size)
		}
		if i > 0 {
			prev := l.window[i-1]
			end := prev.off + prev.foot
			if end == l.size {
				end = 0
			}
			if r.off != end {
				return fmt.Errorf("redolog: window[%d] at %d not contiguous with previous end %d", i, r.off, end)
			}
		}
		used += r.foot
		if r.seq == 0 {
			if !r.consumed {
				return fmt.Errorf("redolog: window[%d] wrap slack not marked consumed", i)
			}
			continue
		}
		if r.seq <= lastSeq {
			return fmt.Errorf("redolog: window[%d] seq %d not above predecessor %d", i, r.seq, lastSeq)
		}
		lastSeq = r.seq
		if r.seq >= l.nextSeq {
			return fmt.Errorf("redolog: window[%d] seq %d >= nextSeq %d", i, r.seq, l.nextSeq)
		}
		got, ok := l.bySeq[r.seq]
		if r.consumed {
			if ok {
				return fmt.Errorf("redolog: consumed seq %d still in live map", r.seq)
			}
		} else {
			live++
			if !ok || got != r {
				return fmt.Errorf("redolog: live seq %d missing from or mismatched in live map", r.seq)
			}
		}
	}
	if used != l.used {
		return fmt.Errorf("redolog: used=%d but window sums to %d", l.used, used)
	}
	if live != len(l.bySeq) {
		return fmt.Errorf("redolog: %d live window records but %d map entries", live, len(l.bySeq))
	}
	if len(l.window) > 0 {
		last := l.window[len(l.window)-1]
		if l.tail != last.off+last.foot {
			return fmt.Errorf("redolog: tail=%d but last record ends at %d", l.tail, last.off+last.foot)
		}
	}
	if l.used < 0 || l.used > l.size {
		return fmt.Errorf("redolog: used=%d outside [0,%d]", l.used, l.size)
	}
	if l.durUsed < l.used || l.durUsed > l.size {
		return fmt.Errorf("redolog: durable span %d outside [used=%d, size=%d]", l.durUsed, l.used, l.size)
	}
	return nil
}
