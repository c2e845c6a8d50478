// Package fabric models the RDMA interconnect (InfiniBand / RoCE in the
// paper's testbed) at the level the experiments need: per-message delivery
// latency composed of propagation, egress serialization with FIFO queueing,
// and optional congestion from background traffic; endpoint up/down state
// for the failure-recovery experiments; and, through a fault injector
// (faults.go), seeded loss, delay, reordering and duplication.
package fabric

import (
	"fmt"
	"sync/atomic"
	"time"

	"prdma/internal/sim"
)

// Params configures the network.
type Params struct {
	// Propagation is the one-way wire+switch latency.
	Propagation time.Duration
	// BytesPerSec is the link bandwidth (per direction, per endpoint).
	BytesPerSec float64
	// BusyQueueMean, when positive, adds an exponentially distributed
	// queueing delay to every message: the "busy network" knob of Fig. 14,
	// which the paper produces with a background flood of small packets.
	BusyQueueMean time.Duration
	// BusyBandwidthShare scales available bandwidth under load (0<s<=1);
	// zero means 1 (no reduction).
	BusyBandwidthShare float64
}

// DefaultParams returns the ConnectX-4-like defaults from DESIGN.md §4.
func DefaultParams() Params {
	return Params{
		Propagation: 800 * time.Nanosecond,
		BytesPerSec: 5e9, // ~40 GbE
	}
}

// Lookahead returns the conservative-PDES lookahead the network guarantees:
// no message ever arrives sooner than the wire propagation delay, so an
// engine partitioned along fabric boundaries may run each partition that far
// ahead without risk (see sim.Engine).
func (p Params) Lookahead() time.Duration { return p.Propagation }

// Transferable is implemented by payloads that can cross between engine
// partitions: CloneForTransfer returns a deep copy owned by nobody (no pools,
// no refcounts), safe for the destination partition to read while the source
// reuses the original's buffers.
type Transferable interface{ CloneForTransfer() interface{} }

// Message is one unit of wire transfer. Payload is opaque to the fabric.
type Message struct {
	From, To string
	Size     int
	Payload  interface{}
}

// pooledMsg is a free-listed message envelope with its delivery thunk bound
// once, so SendPooled schedules delivery without allocating either the
// Message or a closure. Handlers receive &pm.Message and must not retain it
// past the handler call; the envelope is recycled as soon as the handler
// returns (payloads are the sender's to manage, via release).
type pooledMsg struct {
	Message
	net     *Network
	src     *Endpoint
	dst     *Endpoint
	arrive  sim.Time
	release func()
	fn      func()
}

// Network connects named endpoints. Endpoints may live on different kernels
// of one sim.Engine (AttachOn): each endpoint's egress state is then owned by
// its partition, deliveries between partitions ride the engine's window
// barrier, and the counters below — bumped from several partitions at once —
// are maintained with atomic adds (commutative sums, so the totals stay
// deterministic at any worker count).
type Network struct {
	K      *sim.Kernel
	Params Params

	endpoints   map[string]*Endpoint
	rng         *sim.Rand
	inj         *Injector
	partitioned bool

	// reclaim indexes dirty cross-transfer slabs by destination partition;
	// the engine flush hook drains it at every window barrier (see xfer.go).
	reclaim [][]*xferDir
	hooked  bool

	// Stats. Dropped is the total; DroppedFault counts the losses the fault
	// injector caused (partitions and bursts), the rest reached a down or
	// handlerless endpoint.
	Delivered    int64
	Dropped      int64
	DroppedFault int64
	Duplicated   int64
	Reordered    int64
	BytesSent    int64
	// XferReused / XferAllocs count cross-partition transfer envelopes
	// served from a slab vs freshly allocated (see XferSlabStats).
	XferReused int64
	XferAllocs int64
}

// New returns an empty network.
func New(k *sim.Kernel, p Params, seed uint64) *Network {
	return &Network{K: k, Params: p, endpoints: make(map[string]*Endpoint), rng: sim.NewRand(seed)}
}

// SetInjector installs (or, with nil, removes) a fault injector. With no
// injector the send path is bit-for-bit identical to an unfaulted build.
func (n *Network) SetInjector(i *Injector) {
	if i != nil && n.partitioned {
		panic("fabric: the fault injector requires a single-kernel network (shared rng)")
	}
	n.inj = i
}

// Endpoint is one NIC port attached to the network.
type Endpoint struct {
	Name string
	Net  *Network

	k       *sim.Kernel // partition owning this endpoint's state
	tx      *sim.Resource
	up      bool
	handler func(at sim.Time, m *Message)
	// lastArrive enforces per-destination FIFO delivery so that RC/UC
	// in-order semantics hold even under congestion jitter. It is keyed by
	// destination on the *source* endpoint, so it stays partition-local.
	lastArrive map[string]sim.Time
	// msgFree pools send envelopes. Per endpoint (not per network) so two
	// partitions never share a free list: an intra-partition message is
	// allocated and recycled on its source's kernel, and cross-partition
	// messages bypass the pool entirely.
	msgFree []*pooledMsg
	// xfer pools cross-partition transfer envelopes, indexed by destination
	// partition (see xfer.go).
	xfer []*xferDir
}

// AttachOn creates an endpoint whose state lives on kernel k: the network's
// own kernel, or one partition of a sim.Engine when the deployment is split
// across kernels. The handler runs at message arrival time. Sends between
// endpoints on different kernels deep-copy Transferable payloads and deliver
// through the engine barrier. Random per-message behavior (fault injection,
// busy-network queueing) draws from the network's single rng, whose
// consumption order would depend on partition interleaving, so it is
// rejected on partitioned networks.
func (n *Network) AttachOn(k *sim.Kernel, name string, handler func(at sim.Time, m *Message)) *Endpoint {
	if _, dup := n.endpoints[name]; dup {
		panic(fmt.Sprintf("fabric: duplicate endpoint %q", name))
	}
	if k != n.K {
		if k.Engine() == nil || k.Engine() != n.K.Engine() {
			panic("fabric: AttachOn kernel must share an engine with the network's kernel")
		}
		if sim.Time(n.Params.Propagation) < sim.Time(k.Engine().Lookahead()) {
			panic("fabric: engine lookahead exceeds the network propagation delay")
		}
		if n.inj != nil || n.Params.BusyQueueMean > 0 {
			panic("fabric: fault injection and random congestion require a single-kernel network (shared rng)")
		}
		n.partitioned = true
	}
	if eng := k.Engine(); eng != nil {
		// Size the transfer-slab reclaim index for this partition and hook
		// the slab recycler into the engine's window barrier (once).
		n.growReclaim(k.Partition())
		if !n.hooked {
			eng.AddFlushHook(n.reclaimXfer)
			n.hooked = true
		}
	}
	e := &Endpoint{Name: name, Net: n, k: k, tx: sim.NewResource(k), up: true, handler: handler, lastArrive: make(map[string]sim.Time)}
	n.endpoints[name] = e
	return e
}

// SetUp changes the endpoint's availability. While down, inbound messages
// are dropped silently (the sender's reliability layer times out and
// retries, as real RC QPs do).
func (e *Endpoint) SetUp(up bool) { e.up = up }

// bandwidth returns effective egress bandwidth given the load knobs.
func (n *Network) bandwidth() float64 {
	bw := n.Params.BytesPerSec
	if n.Params.BusyBandwidthShare > 0 && n.Params.BusyBandwidthShare < 1 {
		bw *= n.Params.BusyBandwidthShare
	}
	return bw
}

// SerializeCost returns the egress serialization time for n bytes.
func (n *Network) SerializeCost(size int) time.Duration {
	bw := n.bandwidth()
	if bw <= 0 || size <= 0 {
		return 0
	}
	return time.Duration(float64(size) / bw * 1e9)
}

// deliver hands m to e's handler at arrival time, or drops it if e is down
// or has no handler. Cross-partition messages arrive here on the
// destination's kernel.
func (e *Endpoint) deliver(at sim.Time, m *Message) {
	n := e.Net
	if !e.up || e.handler == nil {
		atomic.AddInt64(&n.Dropped, 1)
		return
	}
	atomic.AddInt64(&n.Delivered, 1)
	e.handler(at, m)
}

func (e *Endpoint) getMsg() *pooledMsg {
	if l := len(e.msgFree); l > 0 {
		pm := e.msgFree[l-1]
		e.msgFree = e.msgFree[:l-1]
		return pm
	}
	pm := &pooledMsg{net: e.Net, src: e}
	pm.fn = func() { pm.deliverAt(pm.arrive, true) }
	return pm
}

// finish recycles the envelope and then fires the sender's release hook —
// in that order, so a release that immediately sends again can reuse this
// very envelope. Recycling happens on the source's kernel: intra-partition
// deliveries share it, and cross-partition sends finish at send time.
func (pm *pooledMsg) finish() {
	src, rel := pm.src, pm.release
	pm.Payload, pm.release, pm.dst = nil, nil, nil
	src.msgFree = append(src.msgFree, pm)
	if rel != nil {
		rel()
	}
}

// deliverAt hands the message to the destination at the given time and
// recycles the envelope after the final copy — a duplicated message has two
// — so the sender's release hook fires exactly once.
func (pm *pooledMsg) deliverAt(at sim.Time, final bool) {
	pm.dst.deliver(at, &pm.Message)
	if final {
		pm.finish()
	}
}

// SendPooled transmits a message of size bytes carrying payload from e to
// the endpoint named to. It returns the time the message finishes
// serializing onto the wire (when the sender-side NIC is free again).
// Delivery is scheduled internally from a free-listed envelope with a
// pre-bound delivery event, so the send/deliver path is alloc-free; lost or
// down-endpoint messages are silently dropped — reliability is the QP
// layer's job. release, when non-nil, is invoked exactly once when the
// fabric is done with the message: after the destination handler returns,
// or at the point of any drop (loss, down endpoint, missing handler). The
// handler's *Message is only valid for the duration of the handler call.
func (e *Endpoint) SendPooled(to string, size int, payload interface{}, release func()) sim.Time {
	n := e.Net
	pm := e.getMsg()
	pm.From, pm.To, pm.Size, pm.Payload = e.Name, to, size, payload
	pm.release = release
	atomic.AddInt64(&n.BytesSent, int64(size))

	txDone := e.tx.Reserve(n.SerializeCost(size))

	var v verdict
	if n.inj != nil {
		v = n.inj.judge(txDone, e.Name, to)
		if v.drop {
			atomic.AddInt64(&n.Dropped, 1)
			atomic.AddInt64(&n.DroppedFault, 1)
			pm.finish()
			return txDone
		}
	}
	delay := n.Params.Propagation + v.extra
	if n.Params.BusyQueueMean > 0 {
		delay += time.Duration(n.rng.Exp(float64(n.Params.BusyQueueMean)))
	}
	arrive := txDone.Add(delay)
	if last := e.lastArrive[to]; arrive < last {
		arrive = last
	}
	e.lastArrive[to] = arrive
	if v.reorder > 0 {
		// Held back past the FIFO point without advancing lastArrive, so
		// later messages to the same destination may overtake — bounded
		// reordering.
		arrive = arrive.Add(v.reorder)
		atomic.AddInt64(&n.Reordered, 1)
	}

	dst, ok := n.endpoints[to]
	if !ok {
		panic(fmt.Sprintf("fabric: send to unknown endpoint %q", to))
	}
	if dst.k != e.k {
		// Cross-partition: clone the payload into a pooled transfer envelope
		// (before finish — the sender's release may reuse its buffers), then
		// finish this envelope immediately: release fires at send time, which
		// is legal because the clone detaches the sender's buffers.
		e.postCross(dst, arrive, to, size, payload)
		pm.finish()
		return txDone
	}
	pm.dst, pm.arrive = dst, arrive
	if v.dup > 0 {
		// Duplicated delivery allocates its closures — acceptable: faults
		// are never active on the alloc-pinned benchmark paths.
		atomic.AddInt64(&n.Duplicated, 1)
		dupAt := arrive.Add(v.dup)
		e.k.Schedule(arrive, func() { pm.deliverAt(arrive, false) })
		e.k.Schedule(dupAt, func() { pm.deliverAt(dupAt, true) })
		return txDone
	}
	e.k.Schedule(arrive, pm.fn)
	return txDone
}
