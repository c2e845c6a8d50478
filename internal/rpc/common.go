package rpc

import (
	"encoding/binary"

	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/redolog"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// reqHeaderBytes is the wire header prepended to every request payload:
// seq(8) key(8) size(4) scan(4) op(1) pad(7).
const reqHeaderBytes = 32

// respHeaderBytes is the response header: seq(8) len(4) pad(4).
const respHeaderBytes = 16

// Contents markers carried in request-header byte 25.
const (
	contentsNone = 0 // synthetic payload: timed but never materialized
	contentsReal = 1 // payload bytes follow (or: reads want contents back)
)

// reqImageBytes returns the materialized length of a request's wire image —
// the byte count encodeReqInto produces (the timed size is reqWireBytes).
func reqImageBytes(req *Request) int {
	if carriesPayload(req.Op) && req.Payload != nil {
		return reqHeaderBytes + len(req.Payload)
	}
	return reqHeaderBytes
}

// putReqHeader writes the 32-byte request header into b. flag is the
// contents marker for byte 25. Every pad byte is written so a reused
// scratch buffer yields the same image a fresh allocation would.
func putReqHeader(b []byte, seq uint64, req *Request, flag byte) {
	binary.LittleEndian.PutUint64(b[0:], seq)
	binary.LittleEndian.PutUint64(b[8:], req.Key)
	binary.LittleEndian.PutUint32(b[16:], uint32(req.Size))
	binary.LittleEndian.PutUint32(b[20:], uint32(req.ScanLen))
	b[24] = byte(req.Op)
	b[25], b[26], b[27] = flag, 0, 0
	binary.LittleEndian.PutUint32(b[28:], 0)
}

// encodeReqInto serializes req into b, which must be exactly
// reqImageBytes(req) long, and returns b. The alloc-free encodeReq.
func encodeReqInto(b []byte, seq uint64, req *Request) []byte {
	var flag byte = contentsNone
	if req.Payload != nil {
		flag = contentsReal // "real contents": the server materializes results
	}
	putReqHeader(b, seq, req, flag)
	if carriesPayload(req.Op) {
		copy(b[reqHeaderBytes:], req.Payload)
	}
	return b
}

// encodeReq serializes a request. Synthetic payloads (nil) yield a
// header-only buffer; the wire/memory size is still header+Size.
func encodeReq(seq uint64, req *Request) []byte {
	return encodeReqInto(make([]byte, reqImageBytes(req)), seq, req)
}

// decodeReq parses a request from message bytes.
func decodeReq(b []byte) (uint64, *Request) {
	seq := binary.LittleEndian.Uint64(b[0:])
	req := &Request{
		Key:     binary.LittleEndian.Uint64(b[8:]),
		Size:    int(binary.LittleEndian.Uint32(b[16:])),
		ScanLen: int(binary.LittleEndian.Uint32(b[20:])),
		Op:      Op(b[24]),
	}
	if len(b) > reqHeaderBytes {
		pl := b[reqHeaderBytes:]
		if len(pl) > req.Size {
			pl = pl[:req.Size] // strip log-entry padding/commit trailer
		}
		req.Payload = pl
	} else if b[25] == contentsReal {
		req.Payload = []byte{} // non-nil: reads want real contents back
	}
	return seq, req
}

// carriesPayload reports whether op's requests carry body bytes beyond the
// header: object contents for writes, control records for OpCtrl,
// serialized constituent requests for batch frames.
func carriesPayload(op Op) bool {
	return op == OpWrite || op == OpCtrl || op == opHotpotPrepare || isBatchOp(op)
}

// reqWireBytes is the timed message size for a request.
func reqWireBytes(req *Request) int {
	if carriesPayload(req.Op) {
		return reqHeaderBytes + req.Size
	}
	return reqHeaderBytes
}

// newRespImage returns a fresh response image for an n-byte body: the
// buffer a reply travels in, respHeaderBytes of header room and then the
// body. The server fills the body where the data is produced (the store
// reads PM straight into it), the responder writes the header in place,
// and the client keeps the body as Response.Data — one buffer from PM to
// the caller. A nil image is a header-only reply. The store draws its
// images from the requesting connection instead (conn.replyImage); the
// fresh ones serve the connections that cannot pool them.
func newRespImage(n int) []byte { return make([]byte, respHeaderBytes+n) }

// NewReply returns a response image for an n-byte body together with that
// body, for a Handler to fill: the image travels back in place and its body
// becomes the caller's Response.Data. It is always a fresh image: a Handler
// runs outside any connection, so its replies never come from (or return
// to) a connection's reply pool.
func NewReply(n int) (img, body []byte) {
	img = newRespImage(n)
	return img, img[respHeaderBytes:]
}

// putRespHeader writes the response header for seq into img, whose body is
// everything after the header. Every pad byte is written so a reused
// buffer yields the same image a fresh allocation would.
func putRespHeader(img []byte, seq uint64) {
	binary.LittleEndian.PutUint64(img[0:], seq)
	binary.LittleEndian.PutUint32(img[8:], uint32(len(img)-respHeaderBytes))
	binary.LittleEndian.PutUint32(img[12:], 0)
}

// encodeResp serializes a response in a fresh buffer: the fixed
// header-only and small replies that bypass the worker pool.
func encodeResp(seq uint64, data []byte) []byte {
	img := newRespImage(len(data))
	copy(img[respHeaderBytes:], data)
	putRespHeader(img, seq)
	return img
}

// decodeResp parses a response.
func decodeResp(b []byte) (uint64, []byte) {
	seq := binary.LittleEndian.Uint64(b[0:])
	n := int(binary.LittleEndian.Uint32(b[8:]))
	if len(b) >= respHeaderBytes+n {
		return seq, b[respHeaderBytes : respHeaderBytes+n]
	}
	return seq, nil
}

// respWireBytes is the timed message size for a response to req.
func respWireBytes(req *Request) int {
	switch req.Op {
	case OpRead:
		return respHeaderBytes + req.Size
	case OpScan:
		n := req.ScanLen
		if n <= 0 {
			n = 1
		}
		return respHeaderBytes + n*req.Size
	case OpCtrl:
		// Control results are small fixed records (status + two words).
		return respHeaderBytes + ctrlRespWire
	default:
		return respHeaderBytes
	}
}

// ctrlRespWire is the timed result size budgeted for an OpCtrl response.
const ctrlRespWire = 64

// respMsg is a matched response.
type respMsg struct {
	data []byte
	at   sim.Time
}

// Server hosts the receive side of one or more RPC connections: the shared
// worker pool and the object store.
type Server struct {
	H     *host.Host
	Store *Store
	Cfg   Config

	// Handler, when set, replaces the store as the per-request apply
	// function: services with their own state machine (the pmpool
	// allocation protocol) mount it here and the whole transport — durable
	// logging, crash replay, worker dispatch — is reused unchanged. The
	// handler runs as kernel callbacks on a worker and must call done
	// exactly once, inline or from an event it scheduled, with the
	// response image (built by NewReply; nil is a header-only reply) or
	// with Declined. It must persist its own effects before calling done:
	// the transport acks durability of the *request*, the handler owns
	// durability of its *state*.
	Handler func(req *Request, done func(img []byte))

	work *sim.Chan[workItem]

	// Stats.
	Handled int64
}

// workItem is one queued request at the server. A batch carries its
// constituent requests in reqs (req is then the enclosing opBatch frame).
// respond sends the result's response image (nil: header only); the worker
// charges the reply's CPU cost first — posting a work request, or for a
// reply deposited by a local copy (copyReply, RFP) a memcpy of the image —
// and calls it when that charge ends. conn and seq name the connection and
// sequence the request arrived on: a reply image the store needs is drawn
// from that connection (conn.replyImage).
type workItem struct {
	req       *Request
	reqs      []*Request
	respond   func(img []byte)
	copyReply bool
	consume   func(at sim.Time)
	conn      *conn
	seq       uint64
	// epoch is the server crash epoch at enqueue time: items from before a
	// crash are dropped (their state died with the DRAM work queue).
	epoch int
}

// NewServer starts the worker pool on h.
func NewServer(h *host.Host, store *Store, cfg Config) *Server {
	s := &Server{H: h, Store: store, Cfg: cfg, work: sim.NewChan[workItem](h.K)}
	if s.Cfg.Workers <= 0 {
		s.Cfg.Workers = 1
	}
	for i := 0; i < s.Cfg.Workers; i++ {
		// Each worker's first pop is booked at the current time, in
		// index order: the slot a proc spawned here would start in.
		h.K.Schedule(h.K.Now(), s.newWorker().pop)
	}
	return s
}

// Declined is a sentinel a Handler answers when the service cannot apply
// requests yet — restarted but not recovered, so applying (and consuming
// the log entry) would discard a durably-acked request before the rebuilt
// state exists to receive it. The worker drops the item without responding
// or consuming: the entry stays durable in the redo log and replays on the
// next reestablish, while live callers time out and retry. Identity of the
// slice is what's checked, so a genuine response can never collide with it.
var Declined = []byte{0}

// declined reports whether a handler answered the Declined sentinel.
func declined(img []byte) bool {
	return len(img) == 1 && &img[0] == &Declined[0]
}

// worker drains the shared work queue as kernel callbacks: the receiver's
// asynchronous processing of Fig. 4 (§4.2). Each blocking step a worker
// proc would take is one scheduling call at the same instant: the pop a
// PopFunc, the dispatch a DispatchFunc, the injected processing an exact
// compute charge, the apply the store's (or the Handler's) own events, and
// the reply its charge. The item in hand, the request index and the latest
// result wait in the worker beside continuations built once, so a request
// allocates nothing here.
type worker struct {
	s     *Server
	store *storeApply
	it    workItem
	i     int    // index of the request being applied
	img   []byte // the latest request's result: a batch replies with its last

	pop, dispatched, process, responded func()
	popped                              func(workItem)
	applied                             func(img []byte)
}

func (s *Server) newWorker() *worker {
	w := &worker{s: s}
	w.pop = func() { s.work.PopFunc(w.popped) }
	w.popped = w.take
	w.dispatched = w.step
	w.process = w.apply
	w.applied = func(img []byte) {
		w.img = img
		w.i++
		w.step()
	}
	w.responded = func() {
		w.it.respond(w.img)
		w.finish()
	}
	if s.Store != nil {
		w.store = s.Store.newApply(w.applied)
	}
	return w
}

// take starts on a popped item. Items enqueued before a crash are skipped
// with no event, as a proc's Pop loop skipped them: the next one is taken
// at once if queued, else waited for.
func (w *worker) take(it workItem) {
	s := w.s
	for it.epoch != s.H.PM.Epoch() {
		var ok bool
		if it, ok = s.work.TryPop(); !ok {
			s.work.PopFunc(w.popped)
			return
		}
	}
	w.it, w.i = it, 0
	s.H.DispatchFunc(w.dispatched)
}

// reqs returns the number of requests the item carries.
func (w *worker) reqs() int {
	if w.it.reqs == nil {
		return 1
	}
	return len(w.it.reqs)
}

// step applies the item's next request, or replies once all are applied.
func (w *worker) step() {
	if w.i < w.reqs() {
		if pt := w.s.Cfg.ProcessingTime; pt > 0 {
			// The paper injects a fixed 100 µs to emulate real RPC
			// logic (heavy load, following DaRPC).
			w.s.H.ComputeExactFunc(pt, w.process)
			return
		}
		w.apply()
		return
	}
	w.reply()
}

// apply hands the current request to the Handler or the store.
func (w *worker) apply() {
	r := w.it.req
	if w.it.reqs != nil {
		r = w.it.reqs[w.i]
	}
	if h := w.s.Handler; h != nil {
		h(r, w.applied)
		return
	}
	w.store.from, w.store.seq = w.it.conn, w.it.seq
	w.store.apply(r)
}

// reply sends the item's result, unless the server crashed mid-processing
// (the work is lost) or the handler declined it.
func (w *worker) reply() {
	s := w.s
	if w.it.epoch != s.H.PM.Epoch() || declined(w.img) {
		w.it, w.img = workItem{}, nil
		w.pop()
		return
	}
	if w.it.copyReply {
		n := respHeaderBytes // a header-only reply still deposits its header
		if w.img != nil {
			n = len(w.img)
		}
		s.H.MemcpyFunc(n, w.responded)
		return
	}
	s.H.PostFunc(w.responded)
}

// finish consumes the item's log entry at the reply's time, counts it, and
// pops the next.
func (w *worker) finish() {
	s := w.s
	if w.it.consume != nil {
		w.it.consume(s.H.K.Now())
	}
	s.Handled += int64(w.reqs())
	w.it, w.img = workItem{}, nil
	w.pop()
}

// enqueue hands a request to the worker pool.
func (s *Server) enqueue(it workItem) {
	it.epoch = s.H.PM.Epoch()
	s.work.Push(it)
}

// QueueDepth returns the number of waiting requests.
func (s *Server) QueueDepth() int { return s.work.Len() }

// Crash discards the volatile work queue (call alongside Host.Crash).
func (s *Server) Crash() { s.work.Drain() }

// conn is the shared state of one client↔server connection.
type conn struct {
	kind Kind
	cli  *host.Host
	srv  *Server
	cfg  Config

	cq *rnic.QP // client-side QP
	sq *rnic.QP // server-side QP

	// reqRing is the request message ring (server memory).
	reqRing int64
	// respRing is the response ring (client DRAM).
	respRing int64

	// log is the connection's redo log (durable RPCs only).
	log *redolog.Log

	// eng is non-nil when the client and server hosts live on different
	// kernels of one sim.Engine (cross-partition connection). The log's
	// accounting then runs on the client's kernel and every hop between the
	// two sides — consume notifications, control-word persists, recv-buffer
	// and reservation registrations — travels as a lookahead-delayed engine
	// message (see NewDurable for the per-family split). All durable
	// families run engine mode; Reestablish additionally requires a
	// serialized engine span, and CallBatch is unsupported.
	eng *sim.Engine

	seq     uint64
	pending map[uint64]*sim.Future[respMsg]
	// batches passes decoded batch contents to the server (see batch.go).
	batches map[uint64][]*Request

	// Buffer pools. reqImgs holds request/entry images and hdrImgs
	// header-only response images; each buffer is registered under its
	// sequence until that sequence's response completes and then goes
	// back. Until then a request image may be aliased by the wire message,
	// the device persist pipeline and the server-side request view, all of
	// which quiesce before the response. replies holds the images of
	// replies that carry a body — store reads and scans, RFP's deposit and
	// its poll snapshots — and window keeps each one handed to a caller as
	// Response.Data until RingSlots further replies have completed, as the
	// response-ring slot it models is only overwritten RingSlots replies
	// later; held counts completed replies modulo RingSlots. hdrImgs,
	// replies and window serve only a pooled connection (see pooled);
	// reqImgs, which only the client side touches, serves every durable
	// one. The pools fill lazily.
	reqImgs, hdrImgs, replies bufPool
	window                    [][]byte
	held                      int

	// pooled is set on a connection whose replies may come from its pools:
	// one kernel, replies over RC. Engine mode allocates, because the
	// responder runs on the server's kernel and the pools are client-kernel
	// state; so do UC/UD reply paths (Herd, FaSST), because only RC's
	// in-order check keeps a duplicated reply from being decoded again
	// after its image was reused.
	pooled bool

	closed bool
}

// bufPool is a free list of buffers, with the buffers in flight registered
// under the sequence that holds them.
type bufPool struct {
	free  [][]byte
	bySeq map[uint64][]byte
}

// get returns an n-byte buffer from the list, or a fresh one.
func (b *bufPool) get(n int) []byte {
	var buf []byte
	if l := len(b.free); l > 0 {
		buf = b.free[l-1]
		b.free = b.free[:l-1]
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	return buf[:n]
}

// draw is get with the buffer registered under seq. A buffer seq already
// held is dropped: a batch replies with its last result, so only the last
// image it drew is sent.
func (b *bufPool) draw(seq uint64, n int) []byte {
	buf := b.get(n)
	if b.bySeq == nil {
		b.bySeq = make(map[uint64][]byte)
	}
	b.bySeq[seq] = buf
	return buf
}

// take unregisters and returns seq's buffer (nil if it holds none).
func (b *bufPool) take(seq uint64) []byte {
	buf, ok := b.bySeq[seq]
	if ok {
		delete(b.bySeq, seq)
	}
	return buf
}

// put returns buf to the list; nil is ignored.
func (b *bufPool) put(buf []byte) {
	if buf != nil {
		b.free = append(b.free, buf)
	}
}

// newConn wires QPs and rings. Both rings sit in their hosts' DRAM message
// regions, which peers write but never read, so a request or reply reaches
// software through its completion only. Durable RPCs place their write
// payloads in the PM redo log directly and only use the request ring as a
// message buffer for non-mutating requests.
func newConn(kind Kind, cli *host.Host, srv *Server, cfg Config, tp rnic.Transport) *conn {
	c := &conn{
		kind: kind, cli: cli, srv: srv, cfg: cfg,
		pending: make(map[uint64]*sim.Future[respMsg]),
	}
	if cli.K != srv.H.K {
		eng := cli.K.Engine()
		if eng == nil || eng != srv.H.K.Engine() {
			panic("rpc: cross-kernel connection requires both hosts on one sim.Engine")
		}
		c.eng = eng
	}
	if c.pooled = c.eng == nil && tp == rnic.RC; c.pooled {
		c.window = make([][]byte, cfg.RingSlots)
	}
	c.cq = cli.NIC.CreateQP(tp)
	c.sq = srv.H.NIC.CreateQP(tp)
	rnic.Connect(c.cq, c.sq)

	ringBytes := int64(cfg.RingSlots * cfg.SlotSize)
	var err error
	c.reqRing, err = srv.H.MsgArena.Alloc(ringBytes)
	if err != nil {
		panic(err)
	}
	c.respRing, err = cli.MsgArena.Alloc(ringBytes)
	if err != nil {
		panic(err)
	}
	return c
}

// newLog attaches a redo log to the connection (durable RPCs). The ring
// bytes always live in the server's PM; the accounting side (Reserve,
// Consume, the FIFO window) runs on whichever kernel issues requests — the
// server's normally, the client's in engine mode, where Reserve must not
// touch server-partition state from the client's kernel.
func (c *conn) newLog() {
	base, err := c.srv.H.PMArena.Alloc(c.cfg.LogBytes)
	if err != nil {
		panic(err)
	}
	logK := c.srv.H.K
	if c.eng != nil {
		logK = c.cli.K
	}
	c.log = redolog.New(logK, c.srv.H.PM, base, c.cfg.LogBytes)
	if c.eng != nil {
		// Control-word persists execute where the PM device lives: hop to
		// the server partition, persist both words, and hop back to settle
		// the durable-span accounting. The extra 2·lookahead lag only
		// delays space reclamation — correctness never depends on it.
		srvK, cliK := c.srv.H.K, c.cli.K
		pm, logBase := c.srv.H.PM, base
		c.log.CtrlPersist = func(at sim.Time, headOff int64, floor uint64, done func()) {
			c.eng.PostAfterLookahead(cliK, srvK, func() {
				t1 := pm.PersistWord(srvK.Now(), logBase, uint64(headOff), pmem.CPU)
				t2 := pm.PersistWord(srvK.Now(), logBase+8, floor, pmem.CPU)
				if t1 > t2 {
					t2 = t1
				}
				srvK.Schedule(t2, func() { c.eng.PostAfterLookahead(srvK, cliK, done) })
			})
		}
	}
}

func (c *conn) nextSeq() uint64 {
	c.seq++
	return c.seq
}

func (c *conn) reqSlot(seq uint64) int64 {
	return c.reqRing + int64(int(seq)%c.cfg.RingSlots)*int64(c.cfg.SlotSize)
}

func (c *conn) respSlot(seq uint64) int64 {
	return c.respRing + int64(int(seq)%c.cfg.RingSlots)*int64(c.cfg.SlotSize)
}

// await registers a response future for seq.
func (c *conn) await(seq uint64) *sim.Future[respMsg] {
	f := sim.NewFuture[respMsg](c.cli.K)
	c.pending[seq] = f
	return f
}

// enqueue hands the request that arrived as seq to the server's worker
// pool, which draws the reply's image from c.
func (c *conn) enqueue(seq uint64, it workItem) {
	it.conn, it.seq = c, seq
	c.srv.enqueue(it)
}

// replyImage returns the response image for seq's n-byte reply body (see
// newRespImage). A pooled connection draws it from its replies list and
// registers it under seq: it comes back when the reply has completed and
// RingSlots further replies have too (complete, hold), or at once when
// nothing waits for it (releaseReply). An image whose reply never completes
// — the server crashed, or the QP died — is dropped with the connection.
func (c *conn) replyImage(seq uint64, n int) []byte {
	if !c.pooled {
		return newRespImage(n)
	}
	return c.replies.draw(seq, respHeaderBytes+n)
}

// releaseReply returns seq's reply image to the list at once: its bytes
// were copied where they go (RFP's deposit into server DRAM).
func (c *conn) releaseReply(seq uint64) {
	if c.pooled {
		c.replies.put(c.replies.take(seq))
	}
}

// replyBuf returns an n-byte buffer for a reply the client fetches itself
// (RFP's poll snapshots): from the replies list on a pooled connection,
// else fresh. The caller hands it to hold once it becomes Response.Data.
func (c *conn) replyBuf(n int) []byte {
	if !c.pooled {
		return make([]byte, n)
	}
	return c.replies.get(n)
}

// hold records one completed reply on a pooled connection: img (nil for a
// reply without a pooled image) takes the window slot of the reply that
// completed RingSlots replies ago, whose image goes back to the list. So a
// caller's Response.Data stays intact until RingSlots further replies
// complete on the connection.
func (c *conn) hold(img []byte) {
	if !c.pooled {
		return
	}
	c.replies.put(c.window[c.held])
	c.window[c.held] = img
	if c.held++; c.held == len(c.window) {
		c.held = 0
	}
}

// complete resolves the pending future for seq and releases any pooled
// request/response images registered under it. Retransmit timers may still
// reference the buffers, but a settled transfer is never re-read — and an
// unsettled one means the response has not arrived, so complete has not run.
// A reply image waits in the window (hold); one that no caller waits for —
// its call timed out, or it answers a replayed entry — goes straight back.
func (c *conn) complete(seq uint64, data []byte, at sim.Time) {
	c.reqImgs.put(c.reqImgs.take(seq))
	c.hdrImgs.put(c.hdrImgs.take(seq))
	f, ok := c.pending[seq]
	if !ok {
		c.replies.put(c.replies.take(seq))
		return
	}
	delete(c.pending, seq)
	c.hold(c.replies.take(seq))
	f.Complete(respMsg{data: data, at: at})
}

// startWriteDrain consumes response writes landing in the client's response
// ring and matches them to pending futures.
func (c *conn) startWriteDrain() {
	cq := c.cq // bind to this connection incarnation
	l := newRecvLoop(c.cli, cq.Arrivals, func() bool { return !c.closed && !cq.Dead() })
	l.start(func(arr rnic.Arrival) bool {
		if arr.Data != nil {
			seq, data := decodeResp(arr.Data)
			c.complete(seq, data, c.cli.K.Now())
		}
		return true
	})
}

// startRecvDrain consumes response sends (and write-imms) on the client QP.
func (c *conn) startRecvDrain(repostDRAM bool) {
	cq := c.cq // bind to this connection incarnation
	l := newRecvLoop(c.cli, cq.RecvCQ, func() bool { return !c.closed && !cq.Dead() })
	l.start(func(rcv rnic.Recv) bool {
		if repostDRAM && !rcv.IsImm {
			cq.PostRecv(rcv.Addr, c.cfg.SlotSize)
		}
		if rcv.Data != nil {
			seq, data := decodeResp(rcv.Data)
			c.complete(seq, data, c.cli.K.Now())
		}
		return true
	})
}

// postClientRecvs posts the client's receive buffers for send-based
// responses.
func (c *conn) postClientRecvs() {
	for i := 0; i < c.cfg.RingSlots; i++ {
		c.cq.PostRecv(c.respSlot(uint64(i)), c.cfg.SlotSize)
	}
}

// seal completes seq's response image in place and returns it: the bytes
// the wire carries. A nil image — the write path's header-only reply, pure
// control traffic — is drawn from the connection's hdrImgs pool and
// released when seq completes at the client; a connection that is not
// pooled (see conn.pooled) allocates it.
func (c *conn) seal(seq uint64, img []byte) []byte {
	if img == nil {
		if c.pooled {
			img = c.hdrImgs.draw(seq, respHeaderBytes)
		} else {
			img = newRespImage(0)
		}
	}
	putRespHeader(img, seq)
	return img
}

// respondWrite returns a responder that writes the result into the client's
// response ring (the write-based reply path of Fig. 2).
func (c *conn) respondWrite(seq uint64, req *Request) func(img []byte) {
	return func(img []byte) {
		c.sq.WriteAsync(c.respSlot(seq), respWireBytes(req), c.seal(seq, img))
	}
}

// respondSend returns a responder that sends the result (two-sided reply).
func (c *conn) respondSend(seq uint64, req *Request) func(img []byte) {
	return func(img []byte) {
		c.sq.SendAsync(respWireBytes(req), c.seal(seq, img))
	}
}

// respondWriteImm returns a responder using write-with-immediate (Octopus).
func (c *conn) respondWriteImm(seq uint64, req *Request) func(img []byte) {
	return func(img []byte) {
		c.sq.WriteImmAsync(c.respSlot(seq), respWireBytes(req), c.seal(seq, img), uint32(seq))
	}
}

// traditionalResponse assembles the Response for a fully-synchronous RPC:
// ready, durable and done all coincide with the reply.
func traditionalResponse(issued sim.Time, rm respMsg, k *sim.Kernel) *Response {
	done := sim.NewFuture[sim.Time](k)
	done.Complete(rm.at)
	return &Response{
		Data: rm.data, IssuedAt: issued, ReadyAt: rm.at,
		DurableAt: rm.at, Durable: done, Done: done,
	}
}

// Close marks the connection closed: its receive loops, which run as
// kernel callbacks (see recvLoop), stop at their next live check.
func (c *conn) Close() { c.closed = true }

func (c *conn) Kind() Kind { return c.kind }
