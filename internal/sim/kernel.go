// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel maintains a priority queue of events ordered by virtual time,
// with ties broken by insertion sequence so that runs are exactly
// reproducible. A waiter is either a simulated thread (Proc) or a callback:
// a loop whose work between waits is only delays and non-blocking calls
// can run as a chain of events (Chan.PopFunc, Future.WaitFunc,
// Kernel.AfterFunc) and cost no goroutine; a Cond schedules a callback
// waiter's wake in the FIFO slot a proc's would take, so both kinds see the
// same events in the same order. Procs are backed by goroutines, but only
// one goroutine holds a kernel at a time and control passes between them
// synchronously over channels, so the simulation is deterministic regardless
// of the Go scheduler. There is no kernel goroutine: the event loop runs on
// whichever goroutine holds the kernel — the caller of Run, or the proc
// that just blocked or exited. A blocking proc runs the loop itself and
// resumes the next proc directly (or simply carries on when the next resume
// is its own); the kernel returns to the caller only when the run's bounds
// are reached, and an engine window's kernels run as one chain that returns
// to its caller once. See DESIGN.md "Direct proc handoff", "Receive loops
// run as callbacks" and "One chain per window".
//
// Virtual time is measured in integer nanoseconds (Time). All latencies in
// the PRDMA models are expressed as time.Duration and added to Time values.
//
// Engine performance: the scheduling hot path is allocation-free. Events are
// pooled on a per-kernel free list and recycled as soon as they fire; the
// cancel flag lives inside the event (no escaping *bool); and Timer handles
// use the event's unique sequence number as a generation tag so a recycled
// event can never be canceled through a stale handle. Callers that discard
// the Timer — the overwhelming majority of model code — should use Schedule
// or AfterFunc, which skip the Timer allocation entirely. See DESIGN.md
// "Engine performance".
package sim

import (
	"fmt"
	"math"
	"time"
)

// event is a scheduled callback. Events are pooled: once fired (or popped
// after cancellation) they return to the kernel's free list and are reused.
// seq doubles as a generation tag — it is unique per scheduling and reset to
// zero while the event sits on the free list, so stale Timer handles cannot
// touch a recycled event.
type event struct {
	at  Time
	seq uint64
	fn  func()
	// canceled events stay in the heap (lazy deletion) and are recycled
	// when they reach the top.
	canceled bool
}

// heapSlot is one entry of the event heap. The (at, seq) ordering key is
// stored inline next to the event pointer so heap comparisons read
// contiguous slice memory instead of chasing a pointer per compare — the
// sift paths were cache-miss-bound with a []*event layout. The key is
// immutable once pushed (cancellation flips flags inside the event, never
// its timestamp), so the copies cannot go stale.
type heapSlot struct {
	at  Time
	seq uint64
	ev  *event
}

// eventHeap is a hand-rolled d-ary min-heap ordered by (at, seq). An 8-ary
// layout beats both container/heap (interface-call overhead) and narrower
// layouts of the same code (shallower tree, better cache locality on the
// sift-down path); see BenchmarkKernelEventsDeep in bench_test.go and
// DESIGN.md for the measurements that picked it.
type eventHeap []heapSlot

// heapArity is the heap branching factor. 4 beat 2 on the microbenchmarks
// and 8 beat 4 once the heap slots carried their keys inline (see DESIGN.md
// "Engine performance" and §12); the code works for any arity >= 2 so the
// experiment is one constant away.
const heapArity = 8

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev *event) {
	*h = append(*h, heapSlot{at: ev.at, seq: ev.seq, ev: ev})
	h.up(len(*h) - 1)
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() *event {
	old := *h
	n := len(old) - 1
	ev := old[0].ev
	old[0] = old[n]
	old[n] = heapSlot{}
	*h = old[:n]
	if n > 1 {
		h.down(0)
	}
	return ev
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		m := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(c, m) {
				m = c
			}
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Kernel is a discrete-event simulation engine.
type Kernel struct {
	now    Time
	seq    uint64
	events eventHeap
	// nowQ is the fast path for events scheduled at exactly the current
	// virtual time — Cond wakes, Yields, completion chains. They bypass the
	// heap on a FIFO ring consumed in (at, seq) order relative to the heap:
	// every heap entry at the same timestamp was scheduled earlier (lower
	// seq — a later same-time schedule lands here too, because the clock
	// cannot advance while the ring is non-empty), so draining the heap
	// first at equal timestamps reproduces the heap's total order exactly.
	nowQ    []*event
	nowHead int
	// monoQ is the monotone deadline lane: a FIFO for events whose
	// timestamps are scheduled in non-decreasing order (retransmit timers —
	// now + a constant interval). Entries are sorted by construction (ties
	// in seq order, since appends carry increasing seq), so the lane merges
	// into popNext by an exact (at, seq) head comparison instead of paying
	// heap sifts. Crucially it also keeps far-future timers out of the
	// heap: a 100 ms retry timer otherwise sits under every short-fuse
	// event for the rest of the run, growing the sift depth without bound.
	monoQ    []*event
	monoHead int
	// free is the event free list; dead counts canceled events still
	// parked in the heap awaiting lazy deletion.
	free []*event
	dead int
	// fired counts executed (non-canceled) events since New. Crash-point
	// sweeps use it as a stable coordinate: with identical inputs the i-th
	// fired event is the same across runs, so "crash after event i" is a
	// deterministic, enumerable injection point.
	fired uint64

	// Bounds of the current RunUntil/RunEvents/runHead. They live here, not
	// on the caller's stack, because whichever goroutine holds the kernel
	// runs the loop (see loop).
	deadline Time   // no event later than this fires
	budget   uint64 // live events the run may still fire
	oneHead  bool   // runHead: the run ends after one pop, live or canceled
	stopped  bool   // Stop was called
	// next is the proc the last fired event made runnable; set by schedule,
	// consumed by loop as soon as the event returns.
	next *Proc

	// ch is the chain the kernel's current run belongs to: solo for the
	// kernel's own RunUntil/RunEvents/runHead, an engine chain inside a
	// window. The goroutine that reaches the run's bounds goes on with the
	// chain, which hands back to its caller once. Proc-to-proc transfers go
	// straight to the next proc's resume channel.
	ch   *chain
	solo chain
	// cur is the proc whose body is running; nil while the loop and event
	// callbacks run.
	cur *Proc
	// switches counts goroutine transfers: a resume handed to another
	// proc's goroutine, or a chain handed back to its caller.
	switches uint64

	procs int // live procs, for leak diagnostics
	// live registers every spawned proc until its goroutine exits, so
	// Shutdown can reap procs parked in blocking calls (or never started).
	live map[*Proc]struct{}

	// eng/engID are set when the kernel is one partition of a multi-kernel
	// Engine (see engine.go); standalone kernels have eng nil, engID -1.
	eng   *Engine
	engID int
}

// New returns a fresh kernel at virtual time zero.
func New() *Kernel {
	k := &Kernel{engID: -1, live: make(map[*Proc]struct{})}
	k.solo = chain{ks: []*Kernel{k}, done: make(chan struct{})}
	return k
}

// Engine returns the multi-kernel engine this kernel belongs to, or nil for
// a standalone kernel.
func (k *Kernel) Engine() *Engine { return k.eng }

// Partition returns the kernel's partition index within its engine, or -1
// for a standalone kernel.
func (k *Kernel) Partition() int { return k.engID }

// NextEventAt reports the timestamp of the earliest scheduled event, if any.
// Canceled events still parked in the heap count: popping them is progress.
func (k *Kernel) NextEventAt() (Time, bool) {
	if k.nowHead < len(k.nowQ) {
		return k.nowQ[k.nowHead].at, true // == now; nothing can be earlier
	}
	hOK, mOK := len(k.events) > 0, k.monoHead < len(k.monoQ)
	switch {
	case hOK && mOK:
		if m := k.monoQ[k.monoHead].at; m < k.events[0].at {
			return m, true
		}
		return k.events[0].at, true
	case hOK:
		return k.events[0].at, true
	case mOK:
		return k.monoQ[k.monoHead].at, true
	}
	return 0, false
}

// pendingAny reports whether any event (live or canceled) is queued.
func (k *Kernel) pendingAny() bool {
	return len(k.events) > 0 || k.nowHead < len(k.nowQ) || k.monoHead < len(k.monoQ)
}

// popRing pops the head of a FIFO ring, compacting it when it empties.
func popRing(q *[]*event, head *int) *event {
	ev := (*q)[*head]
	(*q)[*head] = nil
	*head++
	if *head == len(*q) {
		*q = (*q)[:0]
		*head = 0
	}
	return ev
}

// popNext removes and returns the earliest event in (at, seq) order across
// the heap, the monotone lane, and the now-queue. Heap and lane heads carry
// their seq and are compared exactly; a now-queue entry loses every same-
// timestamp tie because it was scheduled latest (see the nowQ invariant).
func (k *Kernel) popNext() *event {
	hOK, mOK := len(k.events) > 0, k.monoHead < len(k.monoQ)
	fromMono := false
	var bestAt Time
	switch {
	case hOK && mOK:
		m, h := k.monoQ[k.monoHead], &k.events[0]
		fromMono = m.at < h.at || (m.at == h.at && m.seq < h.seq)
		if fromMono {
			bestAt = m.at
		} else {
			bestAt = h.at
		}
	case hOK:
		bestAt = k.events[0].at
	case mOK:
		fromMono, bestAt = true, k.monoQ[k.monoHead].at
	default:
		return popRing(&k.nowQ, &k.nowHead)
	}
	if k.nowHead < len(k.nowQ) && k.nowQ[k.nowHead].at < bestAt {
		return popRing(&k.nowQ, &k.nowHead)
	}
	if fromMono {
		return popRing(&k.monoQ, &k.monoHead)
	}
	return k.events.pop()
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// runHead pops the single head event if it is at or before deadline,
// executing it when live and merely recycling it when canceled; a proc the
// event resumes runs until it blocks. It reports whether the head was
// consumed — the engine's serialized window stepping interleaves kernels one
// head event at a time to realize an exact global event order (see
// Engine.Serialize).
func (k *Kernel) runHead(deadline Time) bool {
	if at, ok := k.NextEventAt(); !ok || at > deadline {
		return false
	}
	k.run(deadline, 1, true)
	return true
}

// Pending reports the number of live (not canceled) scheduled events.
func (k *Kernel) Pending() int {
	return len(k.events) + len(k.nowQ) - k.nowHead + len(k.monoQ) - k.monoHead - k.dead
}

// Procs reports the number of live procs.
func (k *Kernel) Procs() int { return k.procs }

// Fired reports how many events have executed since New.
func (k *Kernel) Fired() uint64 { return k.fired }

// Switches reports how many goroutine transfers the kernel has made since
// New: resumes handed to another proc's goroutine, and runs handed back to
// their caller. A proc whose next resume is its own, and a callback waiter,
// cost none.
func (k *Kernel) Switches() uint64 { return k.switches }

// schedule books fn at time t, drawing the event from the free list.
func (k *Kernel) scheduleEvent(t Time, fn func()) *event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn, ev.canceled = t, k.seq, fn, false
	if t == k.now {
		if k.nowHead > 0 && k.nowHead == len(k.nowQ) {
			k.nowQ = k.nowQ[:0]
			k.nowHead = 0
		}
		k.nowQ = append(k.nowQ, ev)
	} else {
		k.events.push(ev)
	}
	return ev
}

// recycle returns a popped event to the free list. seq 0 marks it free so
// stale Timer handles (whose saved seq is always >= 1) become no-ops.
func (k *Kernel) recycle(ev *event) {
	ev.seq, ev.fn, ev.canceled = 0, nil, false
	k.free = append(k.free, ev)
}

// Schedule runs fn at virtual time t. It is the allocation-free counterpart
// of At for the common case where the caller never cancels: no Timer handle
// is returned. Scheduling in the past panics: that is always a model bug.
func (k *Kernel) Schedule(t Time, fn func()) {
	k.scheduleEvent(t, fn)
}

// AfterFunc runs fn d from now; the allocation-free counterpart of After.
func (k *Kernel) AfterFunc(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.scheduleEvent(k.now.Add(d), fn)
}

// AfterFuncMonotonic is AfterFunc for deadlines drawn from a fixed offset —
// retransmit timers, lease refreshes — where successive calls on a kernel
// produce non-decreasing timestamps. Such events ride the monotone FIFO lane:
// O(1) to book and to pop, and they never inflate the heap (a long retry
// timer would otherwise deepen every sift for the rest of the run). Calls
// that arrive out of order are legal and simply fall back to the heap.
func (k *Kernel) AfterFuncMonotonic(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	t := k.now.Add(d)
	if t == k.now || (k.monoHead < len(k.monoQ) && k.monoQ[len(k.monoQ)-1].at > t) {
		k.scheduleEvent(t, fn) // now-queue, or out of order: heap fallback
		return
	}
	k.seq++
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn, ev.canceled = t, k.seq, fn, false
	if k.monoHead > 0 && k.monoHead == len(k.monoQ) {
		k.monoQ = k.monoQ[:0]
		k.monoHead = 0
	}
	k.monoQ = append(k.monoQ, ev)
}

// At schedules fn to run at virtual time t and returns a cancel handle.
// Callers that discard the handle should use Schedule instead.
func (k *Kernel) At(t Time, fn func()) *Timer {
	ev := k.scheduleEvent(t, fn)
	return &Timer{k: k, ev: ev, seq: ev.seq, at: t}
}

// After schedules fn to run d from now.
func (k *Kernel) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now.Add(d), fn)
}

// Timer is a handle to a scheduled event that can be canceled. The handle
// pins the event's sequence number: once the event fires and is recycled the
// numbers no longer match and Stop becomes a no-op.
type Timer struct {
	k   *Kernel
	ev  *event
	seq uint64
	at  Time
}

// Stop cancels the timer. It is safe to call after the event fired (no-op).
func (t *Timer) Stop() {
	if t == nil || t.ev == nil {
		return
	}
	if t.ev.seq == t.seq && !t.ev.canceled {
		t.ev.canceled = true
		t.ev.fn = nil
		t.k.dead++
	}
}

// When returns the virtual time the timer fires at.
func (t *Timer) When() Time { return t.at }

// Run executes events until the queue is empty or Stop is called.
func (k *Kernel) Run() {
	k.RunUntil(Time(1<<62 - 1))
}

// RunUntil executes events with timestamps <= deadline. The virtual clock is
// left at the timestamp of the last executed event (or the deadline if that
// is later and events remain).
func (k *Kernel) RunUntil(deadline Time) {
	k.run(deadline, math.MaxUint64, false)
}

// RunEvents executes at most n live events and reports how many ran (fewer
// only when the queue empties or Stop is called first). It stops the world at an exact event
// boundary: the crashcheck harness steps to event i, injects a crash from
// outside the event loop, and resumes with Run.
func (k *Kernel) RunEvents(n uint64) uint64 {
	return k.run(math.MaxInt64, n, false)
}

// run drives the loop from the calling goroutine under the given bounds, as
// a chain of one, and reports how many live events fired.
func (k *Kernel) run(deadline Time, budget uint64, oneHead bool) uint64 {
	c := &k.solo
	c.deadline, c.budget, c.oneHead = deadline, budget, oneHead
	c.run()
	return budget - k.budget
}

// chain runs kernels back to back under one set of bounds. A kernel's own
// RunUntil, RunEvents or runHead is a chain of one; an engine window's
// active kernels, run serially or one shard per engine worker, are a chain
// of several. Each kernel's run starts on whichever goroutine holds the
// chain: the caller, or the proc goroutine on which the previous kernel's
// run ended. So when runs end on proc goroutines the chain goes back to its
// caller once, not once per kernel. One goroutine holds the chain at a time,
// and every transfer is a channel operation: a proc's resume, or done. See
// DESIGN.md "One chain per window".
type chain struct {
	ks   []*Kernel
	next int // index in ks of the next kernel to start
	// window skips kernels with no event at or before deadline, as an
	// engine window does.
	window   bool
	deadline Time
	budget   uint64
	oneHead  bool
	// k is the kernel whose run is in progress; the hand-back counts as
	// its switch.
	k *Kernel
	// done returns the chain to the goroutine that called run.
	done chan struct{}
	// fault is a callback panic recovered on a proc goroutine, carried to
	// the chain's caller, which re-raises it.
	fault any
}

func newChain() chain { return chain{done: make(chan struct{})} }

// runWindow runs ks as one chain up to the inclusive window edge deadline,
// skipping the kernels with nothing to do in the window.
func (c *chain) runWindow(ks []*Kernel, deadline Time) {
	c.ks, c.window, c.deadline, c.budget, c.oneHead = ks, true, deadline, math.MaxUint64, false
	c.run()
}

// run drives the chain from the calling goroutine. When a kernel's loop
// makes a proc runnable the caller hands that kernel over and parks on done:
// the procs then pass the kernel among themselves, the goroutine that ends
// its run starts the chain's next kernel, and the one that ends the last
// run hands the chain back. A callback panic caught on a proc goroutine is
// re-raised here with the same value.
func (c *chain) run() {
	c.next = 0
	if p := c.step(); p != nil {
		p.K.handOver(p)
		<-c.done
		if r := c.fault; r != nil {
			c.fault = nil
			panic(r)
		}
	}
}

// step starts the chain's remaining kernels in order on the calling
// goroutine. It returns the first proc a kernel's loop makes runnable, for
// the caller to hand that kernel to, or nil once every run has ended.
func (c *chain) step() *Proc {
	for c.next < len(c.ks) {
		k := c.ks[c.next]
		c.next++
		if c.window {
			if t, ok := k.NextEventAt(); !ok || t > c.deadline {
				continue
			}
		}
		c.k, k.ch = k, c
		k.stopped = false
		k.deadline, k.budget, k.oneHead = c.deadline, c.budget, c.oneHead
		if p := k.loop(); p != nil {
			return p
		}
	}
	return nil
}

// onProc runs k's loop on a proc goroutine and, once k's run ends there, the
// chain's remaining kernels. It returns the proc to hand a kernel to, or nil
// when the chain is done. A callback panic must not unwind the proc's body
// (its defers and recovers belong to the model, not to the event that
// failed), so it is caught here and stored for the chain's caller to
// re-raise, and the chain ends.
func (c *chain) onProc(k *Kernel) (next *Proc) {
	defer func() {
		if r := recover(); r != nil {
			c.fault, next = r, nil
		}
	}()
	if next = k.loop(); next == nil {
		next = c.step()
	}
	return next
}

// handBack returns the chain to its caller.
func (c *chain) handBack() {
	c.k.switches++
	c.done <- struct{}{}
}

// loop is the kernel's one event loop. It pops and fires events in (at, seq)
// order until the run's bounds are reached, returning nil, or until a fired
// event makes a proc runnable, returning that proc for the caller to hand
// the kernel to. It runs on whichever goroutine holds the kernel.
func (k *Kernel) loop() *Proc {
	for k.budget > 0 && !k.stopped && k.pendingAny() {
		if at, _ := k.NextEventAt(); at > k.deadline {
			k.now = k.deadline
			return nil
		}
		ev := k.popNext()
		if ev.canceled {
			k.dead--
			k.recycle(ev)
			if k.oneHead {
				k.budget = 0
			}
			continue
		}
		if ev.at < k.now {
			panic("sim: event queue went backwards")
		}
		k.now = ev.at
		fn := ev.fn
		// Recycle before firing so fn can schedule onto the freed slot.
		k.recycle(ev)
		k.fired++
		k.budget--
		fn()
		if p := k.next; p != nil {
			k.next = nil
			return p
		}
	}
	return nil
}

// Stop ends the current run (Run, RunUntil, RunEvents) after the current
// event completes; called from a proc body, once that proc blocks.
func (k *Kernel) Stop() { k.stopped = true }

// Shutdown kills every live proc and releases the kernel's event pools so a
// finished deployment stops pinning memory. Each proc goroutine is parked at
// its resume channel (in a blocking call, or at spawn if it never started);
// Shutdown hands it the kernel with the kill flag set, and it unwinds while
// the caller waits — when Shutdown returns, no proc goroutine remains. The
// run is stopped first, so the exit path's loop fires nothing and hands the
// kernel straight back through the kernel's own chain, with no kernel left
// to start. A proc whose deferred cleanup blocks again is simply re-reaped
// on the next loop iteration. Must not be called from inside the
// simulation.
func (k *Kernel) Shutdown() {
	if k.cur != nil {
		panic("sim: Shutdown from inside the simulation")
	}
	k.stopped = true
	c := &k.solo
	for len(k.live) > 0 {
		var p *Proc
		for q := range k.live {
			p = q
			break
		}
		p.killed = true
		p.waitGen++
		p.waiting = false
		k.ch, c.next, c.k = c, len(c.ks), k
		k.handOver(p) // kill unwind → exit path removes p from live
		<-c.done
	}
	k.events = nil
	k.nowQ = nil
	k.nowHead = 0
	k.monoQ = nil
	k.monoHead = 0
	k.free = nil
	k.dead = 0
}

// RunFor runs for d of virtual time from now.
func (k *Kernel) RunFor(d time.Duration) { k.RunUntil(k.now.Add(d)) }
