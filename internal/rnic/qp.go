package rnic

import (
	"fmt"

	"prdma/internal/sim"
)

// QP is a queue pair: one endpoint of an RDMA connection.
type QP struct {
	nic       *NIC
	ID        int
	Transport Transport

	remoteNIC string
	remoteQP  int

	// RecvCQ delivers two-sided completions (send, write-imm).
	RecvCQ *sim.Chan[Recv]
	// Arrivals delivers one-sided write landings for polling servers.
	Arrivals *sim.Chan[Arrival]

	// FlushSink, set on a server-side QP, lets the NIC autonomously
	// reserve redo-log space for native SFlush operations.
	FlushSink func(n int) int64

	// FlushProbe is a sender-side PM address used by the read-after-write
	// emulation of SFlush (any registered PM address on the peer works:
	// the read drains the QP's pending DMA regardless of address).
	FlushProbe int64

	// ChainNext, set on a server-side QP, makes the NIC forward inbound
	// flush-flagged writes to the next replica without CPU involvement —
	// the HyperLoop-style group offload the paper discusses in §4.5. The
	// flush ACK returns to the origin only once the local persist AND the
	// downstream chain have completed, so one ACK certifies the whole
	// group. ChainNext must be a client-side QP owned by the same NIC.
	ChainNext *QP

	recvBufs     []RecvBuf
	pendingSends []*wireMsg

	seq      uint64
	acks     map[uint64]*sim.Future[sim.Time]
	flushes  map[uint64]*sim.Future[sim.Time]
	reads    map[uint64]pendingRead
	notifies map[uint64]*sim.Future[sim.Time]
	// retryBySeq tracks the live retransmit job per in-flight RC message so
	// the completion that settles it can release the job (and its message
	// reference) immediately instead of at the next 100 ms timer tick.
	retryBySeq map[uint64]*retryJob
	// pendingNotify buffers tags that arrived before ExpectNotify.
	pendingNotify []uint64
	// expected is the next fresh RC request sequence this QP will execute.
	// Requests below it are retransmitted duplicates (re-acknowledge, do not
	// re-apply); requests above it are out-of-order — an earlier request on
	// the connection was lost and is still retransmitting — and are dropped,
	// as a real RC responder NAKs a PSN gap. Executing ahead of a gap would
	// let a flush acknowledgement cover a hole in the redo log.
	expected uint64

	// lastDurable is the durability horizon of inbound operations on this
	// QP: reads (and therefore flush emulation) wait for it.
	lastDurable sim.Time

	// probe is what the emulated flushes' 1-byte reads land in: their
	// bytes are never looked at.
	probe [1]byte

	dead bool
}

// pendingRead is an outstanding one-sided read: the future its response
// completes and the caller's buffer the response's bytes land in.
type pendingRead struct {
	f   *sim.Future[[]byte]
	dst []byte
}

// Dead reports whether the QP was destroyed by a crash.
func (q *QP) Dead() bool { return q.dead }

func (q *QP) nextSeq() uint64 {
	q.seq++
	return q.seq
}

// wireSize is payload plus per-message header overhead.
func (q *QP) wireSize(n int) int { return q.nic.Params.HeaderBytes + n }

// retryJob is a pooled retransmit timer for one RC message. It holds one
// reference to the message (the caller's, taken over by reliablePost) until
// the transfer settles, the QP dies, or the retry budget is exhausted, and
// re-arms itself via its pre-bound thunk, so the reliability path allocates
// nothing in the steady state. settleRetry releases the job as soon as the
// settling completion arrives; the already-armed timer then fires into a
// stale-swallow (the job may have been reused by then) instead of attempting.
type retryJob struct {
	q       *QP
	m       *wireMsg
	size    int
	tries   int
	stale   int // armed timer fires to swallow after an early settle
	settled interface{ Done() bool }
	fn      func()
}

func (n *NIC) newRetryJob() *retryJob {
	if l := len(n.retryFree); l > 0 {
		j := n.retryFree[l-1]
		n.retryFree = n.retryFree[:l-1]
		return j
	}
	j := &retryJob{}
	j.fn = func() { j.timerFire() }
	return j
}

func (j *retryJob) finish() {
	m, q := j.m, j.q
	n := q.nic
	if q.retryBySeq[m.Seq] == j {
		delete(q.retryBySeq, m.Seq)
	}
	j.m, j.q, j.settled = nil, nil, nil
	n.retryFree = append(n.retryFree, j)
	m.unref()
}

// settleRetry releases the retransmit job for seq if f is the future it was
// waiting on. Called from the completion paths (ACK, flush ACK, read
// response); the future identity check keeps a plain ACK from settling a
// flush-guarded job, whose retransmits must continue until the flush ACK.
func (q *QP) settleRetry(seq uint64, f interface{ Done() bool }) {
	j, ok := q.retryBySeq[seq]
	if !ok || j.settled != f {
		return
	}
	j.stale++ // exactly one armed timer outstanding: swallow it
	j.finish()
}

// timerFire is the retransmit-timer entry point: it discounts fires armed by
// a previous, already-settled incarnation of this (pooled) job.
func (j *retryJob) timerFire() {
	if j.stale > 0 {
		j.stale--
		return
	}
	j.attempt()
}

func (j *retryJob) attempt() {
	q := j.q
	n := q.nic
	if q.dead || j.settled.Done() {
		j.finish()
		return
	}
	retries := n.Params.RetryCount
	if retries <= 0 {
		retries = 7
	}
	if j.tries > retries {
		// Retry budget exhausted: the QP enters the error state,
		// exactly as InfiniBand retry_cnt exhaustion does. The
		// application layer re-establishes the connection.
		q.dead = true
		if n.Trace != nil {
			n.Trace("rnic", "%s: qp=%d retry budget exhausted (seq=%d) -> error state", n.Name, q.ID, j.m.Seq)
		}
		j.finish()
		return
	}
	if j.tries > 0 {
		n.Retransmits++
		if n.Trace != nil {
			n.Trace("rnic", "%s: retransmit #%d seq=%d qp=%d", n.Name, j.tries, j.m.Seq, q.ID)
		}
	}
	j.m.ref()
	n.post(q.remoteNIC, j.m, j.size)
	j.tries++
	n.K.AfterFuncMonotonic(n.Params.RetransmitInterval, j.fn)
}

// reliablePost transmits an RC message and retransmits it every
// RetransmitInterval until `settled` reports completion or the QP dies.
// The receiver admits requests strictly in sequence order (see QP.expected):
// duplicates are re-acknowledged without re-applying, and requests ahead of
// a loss-induced gap are dropped until the retransmit fills it — RC's
// in-order execution semantics. Takes over the caller's reference to m.
func (q *QP) reliablePost(m *wireMsg, size int, settled interface{ Done() bool }) {
	j := q.nic.newRetryJob()
	j.q, j.m, j.size, j.tries, j.settled = q, m, size, 0, settled
	q.retryBySeq[m.Seq] = j
	j.attempt()
}

// PostRecv posts a receive buffer. Buffered sends that arrived while no
// buffer was available are placed immediately (RNR retry resolution).
func (q *QP) PostRecv(addr int64, length int) {
	buf := RecvBuf{Addr: addr, Len: length}
	if len(q.pendingSends) > 0 {
		m := q.pendingSends[0]
		q.pendingSends = q.pendingSends[1:]
		q.nic.placeSend(q, m, buf)
		m.unref() // drop the RNR-queue retention
		return
	}
	q.recvBufs = append(q.recvBufs, buf)
}

// localCompleteFuture returns a future resolved when the message has left
// the local NIC (the completion semantics of UC/UD). Takes over the
// caller's reference to m.
func (q *QP) localCompleteFuture(m *wireMsg, size int) *sim.Future[sim.Time] {
	f := sim.NewFuture[sim.Time](q.nic.K)
	done := q.nic.tx.Reserve(q.nic.Params.ProcPerWQE)
	epoch := q.nic.epoch
	n := q.nic
	n.K.Schedule(done, func() {
		if n.epoch != epoch {
			m.unref()
			return
		}
		txDone := n.EP.SendPooled(q.remoteNIC, size, m, m.releaseFn)
		n.K.Schedule(txDone, func() { f.Complete(n.K.Now()) })
	})
	return f
}

// WriteAsync posts a one-sided write of n bytes to remote address raddr and
// returns a future resolved at the work completion: the RC ACK (data staged
// in remote SRAM — not durable!), or local wire-out for UC/UD.
func (q *QP) WriteAsync(raddr int64, n int, data []byte) *sim.Future[sim.Time] {
	m := q.nic.newWireMsg()
	m.Kind, m.SrcQP, m.DstQP, m.Seq = wWrite, q.ID, q.remoteQP, q.nextSeq()
	m.Addr, m.N, m.Data = raddr, n, data
	if q.Transport != RC {
		return q.localCompleteFuture(m, q.wireSize(n))
	}
	f := sim.NewFuture[sim.Time](q.nic.K)
	q.acks[m.Seq] = f
	q.reliablePost(m, q.wireSize(n), f)
	return f
}

// WriteImmAsync is WriteAsync with an immediate value that raises a receive
// completion at the remote CPU.
func (q *QP) WriteImmAsync(raddr int64, n int, data []byte, imm uint32) *sim.Future[sim.Time] {
	m := q.nic.newWireMsg()
	m.Kind, m.SrcQP, m.DstQP, m.Seq = wWriteImm, q.ID, q.remoteQP, q.nextSeq()
	m.Addr, m.N, m.Data, m.Imm = raddr, n, data, imm
	if q.Transport != RC {
		return q.localCompleteFuture(m, q.wireSize(n))
	}
	f := sim.NewFuture[sim.Time](q.nic.K)
	q.acks[m.Seq] = f
	q.reliablePost(m, q.wireSize(n), f)
	return f
}

// WriteFlushAsync posts a write followed by a WFlush (RC only). The returned
// future resolves when the data is durable in the remote PM (T_B).
//
// In native mode the flush piggybacks on the write and the remote NIC ACKs
// at persist completion. In emulated mode (the paper's measurement setup) a
// 1-byte RDMA read of the last written byte follows the write; RC ordering
// makes the read drain the pending DMA, so its response implies durability.
func (q *QP) WriteFlushAsync(raddr int64, n int, data []byte) *sim.Future[sim.Time] {
	if q.Transport != RC {
		panic("rnic: WFlush requires RC")
	}
	if q.nic.Params.EmulateFlush {
		q.WriteAsync(raddr, n, data)
		durable := sim.NewFuture[sim.Time](q.nic.K)
		rd := q.ReadAsync(raddr+int64(n)-1, q.probe[:])
		k := q.nic.K
		rd.Then(func([]byte) { durable.Complete(k.Now()) })
		return durable
	}
	m := q.nic.newWireMsg()
	m.Kind, m.SrcQP, m.DstQP, m.Seq = wWrite, q.ID, q.remoteQP, q.nextSeq()
	m.Addr, m.N, m.Data, m.Flush = raddr, n, data, true
	f := sim.NewFuture[sim.Time](q.nic.K)
	q.flushes[m.Seq] = f
	q.reliablePost(m, q.wireSize(n), f)
	return f
}

// WriteFlush posts write+WFlush and blocks p until the data is durable.
func (q *QP) WriteFlush(p *sim.Proc, raddr int64, n int, data []byte) sim.Time {
	return q.WriteFlushAsync(raddr, n, data).Wait(p)
}

// SendAsync posts a two-sided send. The future resolves at the RC ACK or at
// local wire-out for UC/UD. UD payloads above the MTU panic; RPC layers must
// segment or avoid them (the paper caps FaSST at 4 KB for this reason).
func (q *QP) SendAsync(n int, data []byte) *sim.Future[sim.Time] {
	if q.Transport == UD && n > UDMTU {
		panic(fmt.Sprintf("rnic: UD payload %d exceeds MTU %d", n, UDMTU))
	}
	m := q.nic.newWireMsg()
	m.Kind, m.SrcQP, m.DstQP, m.Seq = wSend, q.ID, q.remoteQP, q.nextSeq()
	m.N, m.Data = n, data
	if q.Transport != RC {
		return q.localCompleteFuture(m, q.wireSize(n))
	}
	f := sim.NewFuture[sim.Time](q.nic.K)
	q.acks[m.Seq] = f
	q.reliablePost(m, q.wireSize(n), f)
	return f
}

// SendFlushAsync posts a send followed by an SFlush (RC only). The future
// resolves when the payload is durable in the remote PM.
//
// Native mode: the remote NIC resolves the log address itself (AddrLookup),
// DMAs the payload into the redo log, and flush-ACKs at persist completion;
// the remote QP must have a FlushSink. Emulated mode: the receive buffers
// themselves live in PM, the sender waits the paper's 7 µs address-lookup
// emulation, then issues a 1-byte read against FlushProbe to drain the DMA.
func (q *QP) SendFlushAsync(n int, data []byte) *sim.Future[sim.Time] {
	if q.Transport != RC {
		panic("rnic: SFlush requires RC")
	}
	if q.nic.Params.EmulateFlush {
		q.SendAsync(n, data)
		durable := sim.NewFuture[sim.Time](q.nic.K)
		k := q.nic.K
		probe := q.FlushProbe
		k.AfterFunc(q.nic.Params.AddrLookup, func() {
			rd := q.ReadAsync(probe, q.probe[:])
			rd.Then(func([]byte) { durable.Complete(k.Now()) })
		})
		return durable
	}
	m := q.nic.newWireMsg()
	m.Kind, m.SrcQP, m.DstQP, m.Seq = wSend, q.ID, q.remoteQP, q.nextSeq()
	m.N, m.Data, m.Flush = n, data, true
	f := sim.NewFuture[sim.Time](q.nic.K)
	q.flushes[m.Seq] = f
	q.reliablePost(m, q.wireSize(n), f)
	return f
}

// ReadAsync posts a one-sided read of len(dst) bytes at remote address
// raddr. The response's bytes land in dst, which the caller owns, and the
// future resolves with dst. Only the first response is copied in: a
// duplicate or a re-served retransmit finds the read settled and is
// dropped, so dst is not written after the future resolves.
func (q *QP) ReadAsync(raddr int64, dst []byte) *sim.Future[[]byte] {
	if q.Transport == UD {
		panic("rnic: RDMA read requires a connected transport")
	}
	m := q.nic.newWireMsg()
	m.Kind, m.SrcQP, m.DstQP, m.Seq = wRead, q.ID, q.remoteQP, q.nextSeq()
	m.Addr, m.N = raddr, len(dst)
	f := sim.NewFuture[[]byte](q.nic.K)
	q.reads[m.Seq] = pendingRead{f: f, dst: dst}
	// A read request is small; the response carries the payload. Reads are
	// idempotent: a retransmitted read is simply re-served, replacing a
	// response the fabric may have lost.
	if q.Transport == RC {
		q.reliablePost(m, q.nic.Params.HeaderBytes, f)
	} else {
		q.nic.post(q.remoteNIC, m, q.nic.Params.HeaderBytes)
	}
	return f
}

// Read posts a read into dst and blocks p until dst holds the data; it
// returns dst.
func (q *QP) Read(p *sim.Proc, raddr int64, dst []byte) []byte {
	return q.ReadAsync(raddr, dst).Wait(p)
}

// Notify sends a small application-level notification (used by RFlush-based
// RPCs: the receiver CPU tells the sender its data is durable). It does not
// involve the remote CPU. Notifications are matched by tag and posted
// unreliably, so they stay outside the QP's request sequence space — a lost
// notify must not open a gap that stalls the peer's in-order admission.
func (q *QP) Notify(tag uint64) {
	m := q.nic.newWireMsg()
	m.Kind, m.SrcQP, m.DstQP, m.Tag = wNotify, q.ID, q.remoteQP, tag
	q.nic.post(q.remoteNIC, m, q.nic.Params.AckBytes)
}

// ExpectNotify returns a future resolved when the peer's Notify(tag)
// arrives. A notification that raced ahead resolves the future immediately.
func (q *QP) ExpectNotify(tag uint64) *sim.Future[sim.Time] {
	f := sim.NewFuture[sim.Time](q.nic.K)
	for i, t := range q.pendingNotify {
		if t == tag {
			q.pendingNotify = append(q.pendingNotify[:i], q.pendingNotify[i+1:]...)
			f.Complete(q.nic.K.Now())
			return f
		}
	}
	q.notifies[tag] = f
	return f
}
