package rnic

import "prdma/internal/sim"

// wireKind enumerates NIC-to-NIC message types.
type wireKind int

const (
	wWrite wireKind = iota
	wWriteImm
	wSend
	wRead
	wReadResp
	wAck      // RC acknowledgement (T_A: data staged in SRAM)
	wFlushAck // flush acknowledgement (T_B: data durable in PM)
	wNotify   // small application-level notification (RFlush completion)
)

func (k wireKind) String() string {
	switch k {
	case wWrite:
		return "write"
	case wWriteImm:
		return "write-imm"
	case wSend:
		return "send"
	case wRead:
		return "read"
	case wReadResp:
		return "read-resp"
	case wAck:
		return "ack"
	case wFlushAck:
		return "flush-ack"
	default:
		return "notify"
	}
}

// wireMsg is the payload carried by fabric messages between NICs. Messages
// are reference-counted free-list objects owned by the creating NIC's pool
// (see newWireMsg): every holder that can outlive the current event — the
// fabric in flight, the rx pipeline, an RNR queue, a retransmit timer —
// takes a ref and drops it when done, and the message recycles at zero.
// Data is a view into a caller-owned buffer; the pool never owns it.
type wireMsg struct {
	Kind         wireKind
	SrcQP, DstQP int
	Seq          uint64 // per-QP sequence for acks and dedup
	Addr         int64  // target address (write/read)
	N            int    // payload length
	Data         []byte // nil for timing-only payloads
	Imm          uint32 // immediate value (write-imm)
	Flush        bool   // piggy-backed native flush request
	Tag          uint64 // notify tag

	snap      []byte // a read response's pooled payload buffer
	nic       *NIC
	refs      int
	releaseFn func() // pre-bound unref, handed to the fabric as release hook
	// xrel marks a pooled transfer clone (CloneForTransferPooled): it fires
	// when the receiver's last reference drops, returning the clone's slab
	// envelope — and with it this struct — to the fabric for reuse.
	xrel func()
}

// newWireMsg returns a pooled message with one reference, owned by the
// caller. Passing it to post/postAt transfers that reference.
func (n *NIC) newWireMsg() *wireMsg {
	if l := len(n.wmFree); l > 0 {
		m := n.wmFree[l-1]
		n.wmFree = n.wmFree[:l-1]
		m.refs = 1
		return m
	}
	m := &wireMsg{nic: n, refs: 1}
	m.releaseFn = func() { m.unref() }
	return m
}

// CloneForTransferPooled implements fabric.TransferPooled: when a message
// crosses between engine partitions the fabric detaches it from the sending
// NIC's pool with a copy whose struct recycles through the fabric's
// transfer slab. prev is the clone this slab slot carried on its previous
// crossing (nil on the first); its struct is reused, but Data is always
// copied fresh — the original views a sender buffer the sender may reuse
// the moment its release hook fires, and receivers retain the copy past the
// reference count (deferred PCIe applies, Arrival/Recv channel pushes, read
// futures), so buffer reuse would corrupt messages still being consumed.
// The clone carries one reference for the in-flight delivery; receiver-side
// ref/unref count it like a pool-owned message, and release fires at zero.
func (m *wireMsg) CloneForTransferPooled(prev interface{}, release func()) interface{} {
	c, _ := prev.(*wireMsg)
	if c == nil {
		c = &wireMsg{}
	}
	*c = *m
	c.nic, c.refs, c.releaseFn, c.snap = nil, 1, nil, nil
	c.xrel = release
	if m.Data != nil {
		c.Data = append([]byte(nil), m.Data...)
	}
	return c
}

// DropTransferRef implements fabric.TransferRef (the fabric's delivery
// reference on a pooled clone).
func (m *wireMsg) DropTransferRef() { m.unref() }

// ref and unref count references for pool-owned messages and pooled
// transfer clones; they are no-ops for caller-constructed (unpooled)
// messages, which have no owner and are garbage-collected as before.
func (m *wireMsg) ref() {
	if m.nic != nil || m.xrel != nil {
		m.refs++
	}
}

func (m *wireMsg) unref() {
	if m.nic == nil && m.xrel == nil {
		return
	}
	m.refs--
	if m.refs > 0 {
		return
	}
	if m.refs < 0 {
		panic("rnic: wireMsg over-released")
	}
	if rel := m.xrel; rel != nil {
		// Pooled transfer clone: drop the buffer view (a fresh copy comes
		// with the next crossing) and hand the struct back to its slab slot.
		m.Data, m.xrel = nil, nil
		rel()
		return
	}
	if m.snap != nil {
		m.nic.snapFree = append(m.nic.snapFree, m.snap)
	}
	*m = wireMsg{nic: m.nic, releaseFn: m.releaseFn}
	m.nic.wmFree = append(m.nic.wmFree, m)
}

// Arrival is delivered on QP.Arrivals when a one-sided write lands in
// receiver memory, modelling what a polling server discovers.
type Arrival struct {
	Addr int64
	N    int
	Data []byte
	// At is when the data became CPU-visible.
	At sim.Time
	// Durable is when (or whether) the data is persistent: zero means the
	// data sits volatile in the LLC (DDIO) and needs a CPU flush.
	Durable sim.Time
	SrcQP   int
}

// Recv is delivered on QP.RecvCQ for two-sided operations and write-imm.
type Recv struct {
	// Addr is the receive-buffer (send) or target (write-imm) address.
	Addr int64
	N    int
	Data []byte
	Imm  uint32
	// At is when the completion was raised.
	At sim.Time
	// Durable is when the payload is persistent (zero: not persistent).
	Durable sim.Time
	// LogAddr is where an SFlush deposited the payload in PM (else -1).
	LogAddr int64
	SrcQP   int
	IsImm   bool
}

// RecvBuf is a posted receive buffer.
type RecvBuf struct {
	Addr int64
	Len  int
}
