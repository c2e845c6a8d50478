package rnic

import (
	"fmt"
	"time"

	"prdma/internal/cache"
	"prdma/internal/dram"
	"prdma/internal/fabric"
	"prdma/internal/pmem"
	"prdma/internal/sim"
)

// NIC is one RDMA network interface card.
type NIC struct {
	K      *sim.Kernel
	Name   string
	Params Params

	EP   *fabric.Endpoint
	PM   *pmem.Device
	LLC  *cache.LLC
	DRAM *dram.Memory

	// rx is the inbound message pipeline, tx the WQE-processing pipeline,
	// pcie the DMA engine. All FIFO resources.
	rx   *sim.Resource
	tx   *sim.Resource
	pcie *sim.Resource

	qps    map[int]*QP
	nextQP int

	mrs []MR

	// Free lists for the data plane: wire messages, WQE-processing thunks,
	// inbound-processing thunks, and retransmit timers. All pre-bind their
	// event closure once, so the steady-state send/receive path allocates
	// nothing. Single-threaded per kernel, so no sync.
	wmFree    []*wireMsg
	txFree    []*txJob
	rxFree    []*rxJob
	retryFree []*retryJob
	jobFree   []*nicJob

	// epoch invalidates in-flight receive-side work on crash (the data in
	// the NIC's volatile SRAM and its pending DMA chain is lost).
	epoch int

	// Trace, when set, receives high-signal model events (see package
	// trace): message staging, flush ACKs, retransmissions, crashes,
	// protection faults.
	Trace func(cat, format string, args ...interface{})

	// Stats.
	StagedMsgs       int64 // messages that touched SRAM
	FlushAcks        int64
	Retransmits      int64
	DroppedStale     int64 // messages for dead QPs
	OutOfOrderDrops  int64 // RC requests NAKed ahead of a PSN gap
	AccessViolations int64 // one-sided ops that failed MR protection
}

// MR is a registered memory region.
type MR struct {
	Base int64
	Len  int64
	Kind MemKind
	// RemoteWrite/RemoteRead grant one-sided access, as ibv_reg_mr access
	// flags do. RegisterMR grants both; RegisterMRProt does not.
	RemoteWrite bool
	RemoteRead  bool
}

// New creates a NIC attached to net under the given endpoint name.
func New(k *sim.Kernel, name string, net *fabric.Network, pm *pmem.Device, llc *cache.LLC, mem *dram.Memory, p Params) *NIC {
	n := &NIC{
		K: k, Name: name, Params: p,
		PM: pm, LLC: llc, DRAM: mem,
		rx: sim.NewResource(k), tx: sim.NewResource(k), pcie: sim.NewResource(k),
		qps: make(map[int]*QP),
	}
	// Attach on the host's kernel: the network's own kernel on a
	// single-kernel deployment, and the endpoint's partition when the host
	// lives on one kernel of a multi-kernel engine.
	n.EP = net.AttachOn(k, name, n.handleWire)
	return n
}

// RegisterMR registers [base, base+len) as kind memory with full remote
// access.
func (n *NIC) RegisterMR(base, length int64, kind MemKind) MR {
	mr := MR{Base: base, Len: length, Kind: kind, RemoteWrite: true, RemoteRead: true}
	n.mrs = append(n.mrs, mr)
	return mr
}

// RegisterMRProt registers a region with explicit access flags. Later
// registrations take precedence over earlier overlapping ones, so a
// read-only window can be carved out of a full-access region.
func (n *NIC) RegisterMRProt(base, length int64, kind MemKind, remoteWrite, remoteRead bool) MR {
	mr := MR{Base: base, Len: length, Kind: kind, RemoteWrite: remoteWrite, RemoteRead: remoteRead}
	n.mrs = append([]MR{mr}, n.mrs...)
	return mr
}

// lookupMR resolves the MR covering addr. Unregistered addresses panic:
// that is always a protocol bug in a model this controlled.
func (n *NIC) lookupMR(addr int64) MR {
	for _, mr := range n.mrs {
		if addr >= mr.Base && addr < mr.Base+mr.Len {
			return mr
		}
	}
	panic(fmt.Sprintf("rnic(%s): access to unregistered address %#x", n.Name, addr))
}

// mrKind resolves the memory kind of addr.
func (n *NIC) mrKind(addr int64) MemKind {
	return n.lookupMR(addr).Kind
}

// checkAccess enforces the MR access flags for a one-sided operation:
// a violation drops the request and moves the target QP into the error
// state, which is how a real RNIC NAKs a protection fault.
func (n *NIC) checkAccess(q *QP, addr int64, write bool) bool {
	mr := n.lookupMR(addr)
	ok := mr.RemoteRead
	if write {
		ok = mr.RemoteWrite
	}
	if !ok {
		n.AccessViolations++
		q.dead = true
		if n.Trace != nil {
			n.Trace("rnic", "%s: PROTECTION FAULT addr=%#x write=%v qp=%d -> error state", n.Name, addr, write, q.ID)
		}
	}
	return ok
}

// pcieCost is the DMA transfer time for n bytes.
func (n *NIC) pcieCost(size int) time.Duration {
	c := sim.CostModel{Base: n.Params.PCIeBase, BytesPerSec: n.Params.PCIeBytesPerSec}
	return c.Cost(size)
}

// CreateQP allocates a queue pair.
func (n *NIC) CreateQP(t Transport) *QP {
	n.nextQP++
	q := &QP{
		nic: n, ID: n.nextQP, Transport: t,
		RecvCQ:   sim.NewChan[Recv](n.K),
		Arrivals: sim.NewChan[Arrival](n.K),
		acks:     make(map[uint64]*sim.Future[sim.Time]),
		flushes:  make(map[uint64]*sim.Future[sim.Time]),
		reads:    make(map[uint64]*sim.Future[[]byte]),
		notifies: make(map[uint64]*sim.Future[sim.Time]),
		expected: 1,

		retryBySeq: make(map[uint64]*retryJob),
	}
	n.qps[q.ID] = q
	return q
}

// Connect pairs two QPs (they must use the same transport).
func Connect(a, b *QP) {
	if a.Transport != b.Transport {
		panic("rnic: transport mismatch in Connect")
	}
	a.remoteNIC, a.remoteQP = b.nic.Name, b.ID
	b.remoteNIC, b.remoteQP = a.nic.Name, a.ID
}

// Crash models a host power failure from the NIC's perspective: all staged
// SRAM contents and pending receive-side work die, all QPs are destroyed,
// and the endpoint stops accepting traffic until Restart.
func (n *NIC) Crash() {
	if n.Trace != nil {
		n.Trace("rnic", "%s: CRASH (epoch %d -> %d), %d QPs destroyed", n.Name, n.epoch, n.epoch+1, len(n.qps))
	}
	n.epoch++
	for _, q := range n.qps {
		q.dead = true
	}
	n.qps = make(map[int]*QP)
	n.EP.SetUp(false)
	n.rx.Reset()
	n.tx.Reset()
	n.pcie.Reset()
}

// Restart brings the endpoint back up; callers re-create QPs and MRs.
func (n *NIC) Restart() {
	if n.Trace != nil {
		n.Trace("rnic", "%s: restart (epoch %d)", n.Name, n.epoch)
	}
	n.EP.SetUp(true)
	n.mrs = nil
}

// txJob is a pooled, pre-bound WQE-processing event: post fills it in and
// schedules fn, avoiding a closure per posted message.
type txJob struct {
	n     *NIC
	dst   string
	m     *wireMsg
	size  int
	epoch int
	fn    func()
}

func (n *NIC) newTxJob() *txJob {
	if l := len(n.txFree); l > 0 {
		j := n.txFree[l-1]
		n.txFree = n.txFree[:l-1]
		return j
	}
	j := &txJob{n: n}
	j.fn = func() { j.run() }
	return j
}

func (j *txJob) run() {
	n, dst, m, size, epoch := j.n, j.dst, j.m, j.size, j.epoch
	j.m, j.dst = nil, ""
	n.txFree = append(n.txFree, j)
	if n.epoch != epoch {
		m.unref() // message died in the crashed NIC's queues
		return
	}
	// The fabric takes over our reference and drops it when the message is
	// delivered (after the handler returns) or lost.
	n.EP.SendPooled(dst, size, m, m.releaseFn)
}

// post runs a WQE through the tx pipeline and puts the message on the wire.
// It takes over one reference to m.
func (n *NIC) post(dst string, m *wireMsg, wireSize int) {
	n.postJob(n.tx.Reserve(n.Params.ProcPerWQE), dst, m, wireSize)
}

// postAt is post starting no earlier than at.
func (n *NIC) postAt(at sim.Time, dst string, m *wireMsg, wireSize int) {
	n.postJob(n.tx.ReserveAt(at, n.Params.ProcPerWQE), dst, m, wireSize)
}

func (n *NIC) postJob(done sim.Time, dst string, m *wireMsg, wireSize int) {
	j := n.newTxJob()
	j.dst, j.m, j.size, j.epoch = dst, m, wireSize, n.epoch
	n.K.Schedule(done, j.fn)
}

// nicJob is the pooled receive-side event: one struct covers the memory
// applies, delivery pushes, flush ACKs, deferred reads and read responses
// that the inbound paths previously scheduled as per-message closures. A
// job recycles itself before acting, so the event it fires may immediately
// reuse the slot; every kind therefore snapshots the fields it reads first.
type nicJob struct {
	n       *NIC
	kind    uint8
	epoch   int
	q       *QP
	m       *wireMsg
	addr    int64
	nb      int
	data    []byte
	imm     uint32
	seq     uint64
	srcQP   int
	logAddr int64
	durable sim.Time
	fn      func()
}

// nicJob kinds. Each helper that creates a job sets every field its kind
// reads; fields left over from a previous use are never consulted.
const (
	jFlushAck uint8 = iota
	jApplyDRAM
	jApplyLLC
	jArrival
	jRecvImm
	jRecvSend
	jServeRead
	jReadRespDRAM
	jReadRespLLC
	jReadRespPM
)

func (n *NIC) newNICJob(kind uint8) *nicJob {
	if l := len(n.jobFree); l > 0 {
		j := n.jobFree[l-1]
		n.jobFree = n.jobFree[:l-1]
		j.kind, j.epoch = kind, n.epoch
		return j
	}
	j := &nicJob{n: n, kind: kind, epoch: n.epoch}
	j.fn = func() { j.run() }
	return j
}

func (j *nicJob) run() {
	// Snapshot and recycle first: the body below may schedule further
	// pooled work that reuses this slot.
	n, kind, epoch, q, m := j.n, j.kind, j.epoch, j.q, j.m
	addr, nb, data := j.addr, j.nb, j.data
	imm, seq, srcQP, logAddr, durable := j.imm, j.seq, j.srcQP, j.logAddr, j.durable
	j.q, j.m, j.data = nil, nil, nil
	n.jobFree = append(n.jobFree, j)

	if kind == jServeRead {
		// The deferred read retains its message across the PCIe drain; the
		// reference drops whether or not the epoch survived.
		if n.epoch == epoch {
			n.serveRead(q, m)
		}
		m.unref()
		return
	}
	if n.epoch != epoch {
		return
	}
	switch kind {
	case jFlushAck:
		n.flushAck(q, seq)
	case jApplyDRAM:
		n.DRAM.Write(addr, data)
	case jApplyLLC:
		n.LLC.InstallDirty(addr, nb, data)
	case jArrival:
		q.Arrivals.Push(Arrival{Addr: addr, N: nb, Data: data,
			At: n.K.Now(), Durable: durable, SrcQP: srcQP})
	case jRecvImm:
		q.RecvCQ.Push(Recv{Addr: addr, N: nb, Data: data, Imm: imm,
			At: n.K.Now(), Durable: durable, LogAddr: -1, SrcQP: srcQP, IsImm: true})
	case jRecvSend:
		q.RecvCQ.Push(Recv{Addr: addr, N: nb, Data: data,
			At: n.K.Now(), Durable: durable, LogAddr: logAddr, SrcQP: srcQP})
	case jReadRespDRAM, jReadRespLLC, jReadRespPM:
		rm := n.newWireMsg()
		rm.Kind, rm.DstQP, rm.SrcQP, rm.Seq, rm.N = wReadResp, q.remoteQP, q.ID, seq, nb
		switch kind {
		case jReadRespDRAM:
			rm.Data = n.DRAM.Read(addr, nb)
		case jReadRespLLC:
			rm.Data = n.LLC.Read(addr, nb)
		default:
			rm.Data = n.PM.ReadBytes(addr, nb)
		}
		n.postAt(n.K.Now(), q.remoteNIC, rm, n.Params.HeaderBytes+nb)
	}
}

// scheduleFlushAck emits the T_B flush acknowledgement for seq at `at`,
// suppressed if the NIC crashes first.
func (n *NIC) scheduleFlushAck(at sim.Time, q *QP, seq uint64) {
	j := n.newNICJob(jFlushAck)
	j.q, j.seq = q, seq
	n.K.Schedule(at, j.fn)
}

// scheduleApply stages the DMA memory effect (DRAM write or dirty-LLC
// install) of an inbound message at `at`.
func (n *NIC) scheduleApply(at sim.Time, kind uint8, addr int64, nb int, data []byte) {
	j := n.newNICJob(kind)
	j.addr, j.nb, j.data = addr, nb, data
	n.K.Schedule(at, j.fn)
}

// scheduleReadResp emits the read response at `at`, fetching the payload
// from the source that kind names at fire time.
func (n *NIC) scheduleReadResp(at sim.Time, kind uint8, q *QP, addr int64, nb int, seq uint64) {
	j := n.newNICJob(kind)
	j.q, j.addr, j.nb, j.seq = q, addr, nb, seq
	n.K.Schedule(at, j.fn)
}

// rxJob is the pooled inbound counterpart of txJob.
type rxJob struct {
	n     *NIC
	m     *wireMsg
	epoch int
	fn    func()
}

func (n *NIC) newRxJob() *rxJob {
	if l := len(n.rxFree); l > 0 {
		j := n.rxFree[l-1]
		n.rxFree = n.rxFree[:l-1]
		return j
	}
	j := &rxJob{n: n}
	j.fn = func() { j.run() }
	return j
}

func (j *rxJob) run() {
	n, m, epoch := j.n, j.m, j.epoch
	j.m = nil
	n.rxFree = append(n.rxFree, j)
	if n.epoch == epoch {
		n.process(m)
	}
	m.unref()
}

// handleWire is the fabric arrival handler: it runs the message through the
// inbound pipeline and then processes it.
func (n *NIC) handleWire(at sim.Time, fm *fabric.Message) {
	m := fm.Payload.(*wireMsg)
	cost := n.Params.ProcPerWQE
	if m.Kind == wSend {
		cost += n.Params.SendExtra
	}
	done := n.rx.ReserveAt(at, cost)
	// Retain across the rx pipeline: the sender's reference dies with the
	// fabric's release hook as soon as this handler returns.
	m.ref()
	j := n.newRxJob()
	j.m, j.epoch = m, n.epoch
	n.K.Schedule(done, j.fn)
}

// process dispatches one inbound message at the current virtual time.
func (n *NIC) process(m *wireMsg) {
	q, ok := n.qps[m.DstQP]
	if !ok {
		n.DroppedStale++
		return
	}
	switch m.Kind {
	case wWrite, wWriteImm:
		n.inboundWrite(q, m)
	case wSend:
		n.inboundSend(q, m)
	case wRead:
		n.inboundRead(q, m)
	case wReadResp:
		if f, ok := q.reads[m.Seq]; ok {
			delete(q.reads, m.Seq)
			q.settleRetry(m.Seq, f)
			f.Complete(m.Data)
		}
	case wAck:
		if f, ok := q.acks[m.Seq]; ok {
			delete(q.acks, m.Seq)
			q.settleRetry(m.Seq, f)
			f.Complete(n.K.Now())
		}
	case wFlushAck:
		if f, ok := q.flushes[m.Seq]; ok {
			delete(q.flushes, m.Seq)
			q.settleRetry(m.Seq, f)
			f.Complete(n.K.Now())
		}
	case wNotify:
		if f, ok := q.notifies[m.Tag]; ok {
			delete(q.notifies, m.Tag)
			f.Complete(n.K.Now())
		} else {
			q.pendingNotify = append(q.pendingNotify, m.Tag)
		}
	}
}

// rcAck sends the RC acknowledgement: data has reached NIC SRAM (T_A).
func (n *NIC) rcAck(q *QP, seq uint64) {
	if q.Transport != RC {
		return
	}
	m := n.newWireMsg()
	m.Kind, m.DstQP, m.SrcQP, m.Seq = wAck, q.remoteQP, q.ID, seq
	n.post(q.remoteNIC, m, n.Params.AckBytes)
}

// flushAck acknowledges durability (T_B).
func (n *NIC) flushAck(q *QP, seq uint64) {
	n.FlushAcks++
	if n.Trace != nil {
		n.Trace("rnic", "%s: flush-ack seq=%d qp=%d (durable)", n.Name, seq, q.ID)
	}
	m := n.newWireMsg()
	m.Kind, m.DstQP, m.SrcQP, m.Seq = wFlushAck, q.remoteQP, q.ID, seq
	n.post(q.remoteNIC, m, n.Params.AckBytes)
}

// inboundWrite handles write and write-imm: stage in SRAM, ACK (RC), DMA to
// the target memory, and track/ack durability.
func (n *NIC) inboundWrite(q *QP, m *wireMsg) {
	if q.Transport == RC {
		if m.Seq > q.expected {
			// Out-of-order request: an earlier request on this QP was lost
			// and is still retransmitting. Executing ahead of the gap would
			// break the durability-horizon contract (an ACKed entry could
			// sit behind a hole in the redo log), so NAK-drop it; the
			// sender's retransmit redelivers it in order.
			n.OutOfOrderDrops++
			return
		}
		if m.Seq < q.expected {
			// Duplicate from a retransmit: re-ACK (and re-issue the
			// flush ACK, which covers the durability horizon), but do
			// not re-apply the data.
			n.rcAck(q, m.Seq)
			if m.Flush {
				at := n.K.Now()
				if q.lastDurable > at {
					at = q.lastDurable
				}
				n.scheduleFlushAck(at, q, m.Seq)
			}
			return
		}
		q.expected++
	}
	if !n.checkAccess(q, m.Addr, true) {
		return // protection fault: NAK, QP error
	}
	n.StagedMsgs++
	n.rcAck(q, m.Seq) // T_A

	// Snapshot the message: m is pooled and may be recycled before the
	// events scheduled below fire.
	addr, nb, data := m.Addr, m.N, m.Data
	seq, flush := m.Seq, m.Flush

	kind := n.mrKind(addr)
	pcieDone := n.pcie.Reserve(n.pcieCost(nb))
	epoch := n.epoch

	// The delivery (completion-queue push) job; each branch below fills in
	// the durability horizon and schedules it after the memory effect.
	dj := n.newNICJob(jArrival)
	if m.Kind == wWriteImm {
		dj.kind = jRecvImm
	}
	dj.q, dj.addr, dj.nb, dj.data = q, addr, nb, data
	dj.imm, dj.srcQP = m.Imm, m.SrcQP

	switch {
	case kind == MemDRAM:
		n.scheduleApply(pcieDone, jApplyDRAM, addr, nb, data)
		dj.durable = 0
		n.K.Schedule(pcieDone, dj.fn)
	case n.Params.DDIO && !flush:
		// DDIO steers the DMA into the volatile LLC (§2.3): fast and
		// CPU-visible, but not durable until a CPU clflush.
		n.scheduleApply(pcieDone, jApplyLLC, addr, nb, data)
		dj.durable = 0
		n.K.Schedule(pcieDone, dj.fn)
	default:
		durable := n.PM.Persist(pcieDone, addr, nb, data, pmem.DMA)
		if durable > q.lastDurable {
			q.lastDurable = durable
		}
		// Flush semantics (and CPU visibility for polling-based
		// persistence checks) apply to the QP's whole durability horizon:
		// the ACK implies every earlier write on the connection is
		// durable too, matching IBTA flush ordering rules. This is what
		// lets log recovery stop at the first torn entry without ever
		// dropping an acknowledged one.
		horizon := q.lastDurable
		dj.durable = horizon
		n.K.Schedule(horizon, dj.fn)
		if q.ChainNext != nil {
			// Chained QPs forward every inbound write to the next
			// replica (HyperLoop forwards the whole write stream).
			if !flush {
				q.ChainNext.WriteAsync(addr, nb, data)
				return
			}
			// HyperLoop-style group offload (§4.5): forward the write
			// down the replica chain NIC-to-NIC and ACK the origin only
			// when the local persist and the whole downstream chain are
			// durable.
			fwd := q.ChainNext.WriteFlushAsync(addr, nb, data)
			fwd.Then(func(sim.Time) {
				if n.epoch != epoch {
					return
				}
				at := horizon
				if now := n.K.Now(); now > at {
					at = now
				}
				n.scheduleFlushAck(at, q, seq)
			})
			return
		}
		if flush {
			ackAt := horizon
			if n.Params.AckBeforeDurable {
				ackAt = pcieDone // §2.4 bug: ACK before the media persist
			}
			n.scheduleFlushAck(ackAt, q, seq)
		}
	}
}

// inboundSend handles two-sided sends: consume a posted receive buffer, DMA
// the payload into it, raise a receive completion; with an SFlush, also
// resolve the log address and persist the payload there.
func (n *NIC) inboundSend(q *QP, m *wireMsg) {
	if q.Transport == RC {
		if m.Seq > q.expected {
			// Out-of-order: see inboundWrite. For sends, in-order admission
			// also keeps native-SFlush reservation matching exact.
			n.OutOfOrderDrops++
			return
		}
		if m.Seq < q.expected {
			n.rcAck(q, m.Seq)
			if m.Flush {
				at := n.K.Now()
				if q.lastDurable > at {
					at = q.lastDurable
				}
				// The job snapshots m.Seq now: m is pooled and may carry a
				// different message by the time the ACK fires.
				n.scheduleFlushAck(at, q, m.Seq)
			}
			return
		}
		q.expected++
	}
	n.StagedMsgs++
	n.rcAck(q, m.Seq) // T_A
	if len(q.recvBufs) == 0 {
		// Receiver-not-ready: hold in SRAM until a buffer is posted. The
		// queue retains the message past this event (released in PostRecv).
		m.ref()
		q.pendingSends = append(q.pendingSends, m)
		return
	}
	buf := q.recvBufs[0]
	q.recvBufs = q.recvBufs[1:]
	n.placeSend(q, m, buf)
}

// placeSend performs the DMA chain for a send whose buffer is known. It
// only uses m synchronously; scheduled events snapshot the fields.
func (n *NIC) placeSend(q *QP, m *wireMsg, buf RecvBuf) {
	nb, data := m.N, m.Data
	seq, srcQP, flush := m.Seq, m.SrcQP, m.Flush
	kind := n.mrKind(buf.Addr)
	pcieDone := n.pcie.Reserve(n.pcieCost(nb))

	var visible, durable sim.Time
	switch {
	case kind == MemDRAM:
		n.scheduleApply(pcieDone, jApplyDRAM, buf.Addr, nb, data)
		visible, durable = pcieDone, 0
	default:
		d := n.PM.Persist(pcieDone, buf.Addr, nb, data, pmem.DMA)
		if d > q.lastDurable {
			q.lastDurable = d
		}
		// Horizon semantics: see inboundWrite.
		visible, durable = q.lastDurable, q.lastDurable
	}

	logAddr := int64(-1)
	if flush && q.FlushSink != nil {
		// SFlush: the NIC parses the packet to resolve the destination
		// (AddrLookup), then a second DMA deposits the payload in the
		// redo log and persists it (paper Fig. 5, steps A and B).
		logAddr = q.FlushSink(nb)
		lookupDone := pcieDone.Add(n.Params.AddrLookup)
		dma2 := n.pcie.ReserveAt(lookupDone, n.pcieCost(nb))
		d := n.PM.Persist(dma2, logAddr, nb, data, pmem.DMA)
		if d > q.lastDurable {
			q.lastDurable = d
		}
		durable = q.lastDurable // horizon semantics: see inboundWrite
		ackAt := durable
		if n.Params.AckBeforeDurable {
			ackAt = dma2 // §2.4 bug: ACK before the media persist
		}
		n.scheduleFlushAck(ackAt, q, seq)
		if visible < durable {
			visible = durable
		}
	}

	j := n.newNICJob(jRecvSend)
	j.q, j.addr, j.nb, j.data = q, buf.Addr, nb, data
	j.durable, j.logAddr, j.srcQP = durable, logAddr, srcQP
	n.K.Schedule(visible, j.fn)
}

// inboundRead serves a one-sided read. Without DDIO, a read of a range with
// in-flight DMA forces/waits for the flush to PM first — this is exactly the
// mechanism the paper uses to emulate WFlush. With DDIO the read is served
// from the LLC immediately, which is why read-after-write fails as a
// persistence check (§2.4).
func (n *NIC) inboundRead(q *QP, m *wireMsg) {
	if q.Transport == RC {
		if m.Seq > q.expected {
			// Out-of-order: the read must not pass a lost earlier write —
			// that is precisely what makes read-after-write a valid flush
			// emulation. Drop it; the sender retransmits.
			n.OutOfOrderDrops++
			return
		}
		if m.Seq == q.expected {
			q.expected++
		}
		// Below expected: a retransmitted read whose response was lost.
		// Reads are idempotent — re-serve to replace the response.
	}
	// PCIe ordering: a read cannot pass DMA writes already queued in the
	// engine; defer service until the current backlog drains.
	start := n.pcie.NextFree()
	if now := n.K.Now(); now > start {
		start = now
	}
	m.ref() // retained until serveRead runs
	j := n.newNICJob(jServeRead)
	j.q, j.m = q, m
	n.K.Schedule(start, j.fn)
}

// serveRead resolves a read once the DMA engine has drained ahead of it.
// m is only used synchronously; scheduled events snapshot the fields.
func (n *NIC) serveRead(q *QP, m *wireMsg) {
	if !n.checkAccess(q, m.Addr, false) {
		return // protection fault: NAK, QP error
	}
	addr, nb, seq := m.Addr, m.N, m.Seq
	kind := n.mrKind(addr)
	switch {
	case kind == MemDRAM:
		done := n.pcie.Reserve(n.pcieCost(nb))
		n.scheduleReadResp(done, jReadRespDRAM, q, addr, nb, seq)
	case n.Params.DDIO && n.LLC.DirtyIn(addr, nb):
		// Served from cache: fast, and silently non-durable.
		done := n.pcie.Reserve(n.pcieCost(nb))
		n.scheduleReadResp(done, jReadRespLLC, q, addr, nb, seq)
	default:
		start := n.K.Now()
		if q.lastDurable > start {
			start = q.lastDurable // read flushes pending DMA first
		}
		readDone := n.PM.Read(start, addr, nb)
		pcieDone := n.pcie.ReserveAt(readDone, n.pcieCost(nb))
		n.scheduleReadResp(pcieDone, jReadRespPM, q, addr, nb, seq)
	}
}
