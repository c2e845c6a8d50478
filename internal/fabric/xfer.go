// Cross-partition transfer slabs: pooled delivery envelopes so that a
// partition crossing in steady state allocates nothing — no Message, no
// delivery closure, and (for payloads implementing TransferPooled) no clone
// struct. Payload *data buffers* are still copied fresh per crossing:
// receivers retain them past the delivery refcount (rx pipelines, deferred
// PCIe applies, futures), so recycling them would be a use-after-free in
// simulation form. See DESIGN.md §12.
package fabric

import (
	"sync/atomic"

	"prdma/internal/sim"
)

// TransferPooled is the recycling counterpart of Transferable. The clone it
// returns must be safe for the destination partition while the source reuses
// the original, like CloneForTransfer — but it may reuse `prev`, the clone
// recycled from this slab slot's previous crossing, instead of allocating.
// The returned clone must implement TransferRef, and must call `release`
// exactly once when the receiver drops its last reference: that is what
// parks the envelope (and with it the clone, via env.msg.Payload) for reuse.
type TransferPooled interface {
	CloneForTransferPooled(prev interface{}, release func()) interface{}
}

// TransferRef is implemented by pooled transfer clones. The fabric holds one
// reference on behalf of the in-flight delivery and drops it after the
// destination handler returns (or the message lands on a down endpoint);
// handlers that retain the clone take their own references underneath.
type TransferRef interface {
	DropTransferRef()
}

// xferEnv is one pooled cross-partition delivery: envelope, fabric.Message
// and pre-bound delivery event in a single free-listed struct. msg.Payload
// doubles as the slab slot's recycled clone (`prev` above) between uses.
type xferEnv struct {
	dir *xferDir
	dst *Endpoint
	at  sim.Time
	msg Message
	// pooled marks a payload cloned via TransferPooled: the envelope then
	// parks when the clone's last receiver reference drops — possibly long
	// after delivery — instead of when the handler returns.
	pooled  bool
	release func()
	fn      func()
}

// xferDir is the per-(source endpoint, destination partition) slab.
// Ownership is split so no lock is ever taken: the source partition pops
// free envelopes, the destination partition parks spent ones, and the
// engine's flush hook — coordinator context, every kernel quiesced — moves
// spent back to free at window barriers. The engine's barrier atomics
// provide the happens-before edges for each hand-off.
type xferDir struct {
	net     *Network
	dstPart int
	free    []*xferEnv // popped by the source partition only
	spent   []*xferEnv // appended by the destination partition only
	dirty   bool       // queued on net.reclaim[dstPart]
}

// getXfer returns a transfer envelope for a send from e to dst, reusing one
// parked by an earlier crossing in the same direction when available.
func (e *Endpoint) getXfer(dst *Endpoint) *xferEnv {
	part := dst.k.Partition()
	for len(e.xfer) <= part {
		e.xfer = append(e.xfer, nil)
	}
	dir := e.xfer[part]
	if dir == nil {
		dir = &xferDir{net: e.Net, dstPart: part}
		e.xfer[part] = dir
	}
	if l := len(dir.free); l > 0 {
		env := dir.free[l-1]
		dir.free[l-1] = nil
		dir.free = dir.free[:l-1]
		env.dst = dst
		atomic.AddInt64(&e.Net.XferReused, 1)
		return env
	}
	atomic.AddInt64(&e.Net.XferAllocs, 1)
	env := &xferEnv{dir: dir, dst: dst}
	env.release = func() { env.park() }
	env.fn = func() { env.deliver() }
	return env
}

// postCross clones the payload into a pooled envelope and hands delivery to
// the engine barrier. Runs on the source partition; the clone must happen
// here, before the sender recycles its buffers.
func (e *Endpoint) postCross(dst *Endpoint, arrive sim.Time, to string, size int, payload interface{}) {
	env := e.getXfer(dst)
	env.at = arrive
	env.msg.From, env.msg.To, env.msg.Size = e.Name, to, size
	switch p := payload.(type) {
	case TransferPooled:
		env.pooled = true
		env.msg.Payload = p.CloneForTransferPooled(env.msg.Payload, env.release)
	case Transferable:
		env.pooled = false
		env.msg.Payload = p.CloneForTransfer()
	default:
		env.pooled = false
		env.msg.Payload = payload
	}
	e.k.Engine().Post(e.k, dst.k, arrive, env.fn)
}

// deliver runs on the destination partition at arrival time.
func (env *xferEnv) deliver() {
	env.dst.deliver(env.at, &env.msg)
	if env.pooled {
		// The receiver may still hold references to the clone; the release
		// hook bound at clone time parks the envelope when the last drops.
		env.msg.Payload.(TransferRef).DropTransferRef()
		return
	}
	env.msg.Payload = nil
	env.park()
}

// park returns the envelope to its slab. It runs on the destination
// partition (at delivery for plain payloads, at the last reference drop for
// pooled clones); the spent list stays destination-owned until the engine's
// flush hook moves it back to free.
func (env *xferEnv) park() {
	d := env.dir
	d.spent = append(d.spent, env)
	if !d.dirty {
		d.dirty = true
		n := d.net
		n.reclaim[d.dstPart] = append(n.reclaim[d.dstPart], d)
	}
}

// reclaimXfer is the engine flush hook: at every window barrier, return each
// dirty slab's spent envelopes to its free list. Coordinator context —
// single goroutine, all kernels quiesced — is what makes this cross-
// partition hand-off safe without locks.
func (n *Network) reclaimXfer() {
	for pi := range n.reclaim {
		dirs := n.reclaim[pi]
		if len(dirs) == 0 {
			continue
		}
		for di, d := range dirs {
			d.free = append(d.free, d.spent...)
			for j := range d.spent {
				d.spent[j] = nil
			}
			d.spent = d.spent[:0]
			d.dirty = false
			dirs[di] = nil
		}
		n.reclaim[pi] = dirs[:0]
	}
}

// growReclaim ensures the reclaim index covers destination partition part.
// Called only at AttachOn time (setup, single-threaded).
func (n *Network) growReclaim(part int) {
	for len(n.reclaim) <= part {
		n.reclaim = append(n.reclaim, nil)
	}
}

// XferSlabStats reports pooled cross-transfer envelope reuse: hits are
// envelopes served from a slab, misses are fresh allocations. Both are
// deterministic at any worker count (pops and parks are per-direction and
// ordered by the simulation, reclaim by the barrier).
func (n *Network) XferSlabStats() (hits, misses int64) {
	return atomic.LoadInt64(&n.XferReused), atomic.LoadInt64(&n.XferAllocs)
}
