// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel maintains a priority queue of events ordered by virtual time,
// with ties broken by insertion sequence so that runs are exactly
// reproducible. A waiter is either a simulated thread (Proc) or a callback:
// a loop whose work between waits is only delays and non-blocking calls
// can run as a chain of events (Chan.PopFunc, Future.WaitFunc,
// Kernel.AfterFunc) and cost no goroutine; a Cond schedules a callback
// waiter's wake in the FIFO slot a proc's would take, so both kinds see the
// same events in the same order. A proc's body runs in a runtime coroutine
// (iter.Pull), and only one body holds a kernel at a time, so the simulation
// is deterministic regardless of the Go scheduler. There is no kernel
// goroutine: the goroutine that calls Run is the run's one resumer, and the
// event loop runs either there or inside the proc that just blocked or
// exited. A blocking proc runs the loop itself and simply carries on when
// the next resume is its own; otherwise it records the woken proc and
// yields, and the resumer resumes that proc. A switch is a coroutine switch
// on the resumer's thread: no channel, and no other thread to wake. An
// engine window's kernels run as one chain with one resumer. See DESIGN.md
// "Direct proc handoff", "Receive loops run as callbacks" and "One chain
// per window".
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
	// virtual time — Cond wakes, zero-delay sleeps, completion chains. They
	// bypass the heap on a FIFO ring consumed in (at, seq) order relative to
	// the heap: every heap entry at the same timestamp was scheduled earlier
	// (lower seq — a later same-time schedule lands here too, because the
	// clock cannot advance while the ring is non-empty), so draining the heap
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
	// on the caller's stack, because the loop also runs inside procs (see
	// loop).
	deadline Time   // no event later than this fires
	budget   uint64 // live events the run may still fire
	oneHead  bool   // runHead: the run ends after one pop, live or canceled
	stopped  bool   // Stop was called
	// next is the proc the last fired event made runnable; set by the
	// proc's wake event, consumed by loop as soon as the event returns.
	next *Proc

	// ch is the chain the kernel's current run belongs to: solo for the
	// kernel's own RunUntil/RunEvents/runHead, an engine chain inside a
	// window. A blocking proc records the next proc to resume on it.
	ch   *chain
	solo chain
	// cur is the proc whose body is running; nil while the loop and event
	// callbacks run.
	cur *Proc
	// switches counts transfers of the kernel: a resume of another proc,
	// or a chain handed back to its caller.
	switches uint64

	procs int // live procs, for leak diagnostics
	// live registers every spawned proc until its body exits, so Shutdown
	// can reap procs suspended in blocking calls (or never started).
	live map[*Proc]struct{}

	// eng/engID are set when the kernel is one partition of a multi-kernel
	// Engine (see engine.go); standalone kernels have eng nil, engID -1.
	eng   *Engine
	engID int
}

// New returns a fresh kernel at virtual time zero.
func New() *Kernel {
	k := &Kernel{engID: -1, live: make(map[*Proc]struct{})}
	k.solo = chain{ks: []*Kernel{k}}
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

// Switches reports how many transfers of the kernel it has made since New:
// resumes of a proc other than the one that blocked, and runs handed back
// to their caller by a proc. A proc whose next resume is its own, and a
// callback waiter, cost none.
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
	return &Timer{k: k, ev: ev, seq: ev.seq}
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
// of several. The goroutine that runs the chain is its one resumer: it
// starts each kernel's run and resumes each proc the runs wake, and the
// loop also runs inside a proc that blocked or exited, which goes on with
// the chain's next kernels when its kernel's run ends. So the chain comes
// back to its caller once, not once per kernel. See DESIGN.md "One chain
// per window".
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
	// pending is the proc to resume next, recorded by the proc that yields;
	// nil ends the chain.
	pending *Proc
	// fault is a callback panic recovered inside a proc, carried to the
	// resumer, which re-raises it.
	fault *Panic
}

// runWindow runs ks as one chain up to the inclusive window edge deadline,
// skipping the kernels with nothing to do in the window.
func (c *chain) runWindow(ks []*Kernel, deadline Time) {
	c.ks, c.window, c.deadline, c.budget, c.oneHead = ks, true, deadline, math.MaxUint64, false
	c.run()
}

// run drives the chain from the calling goroutine.
func (c *chain) run() {
	c.next = 0
	if p := c.step(); p != nil {
		c.drive(p)
	}
}

// drive is the resumer's loop: it resumes p, then each proc the previous
// one recorded as pending when it yielded, until one yields with none. Each
// resume counts as a switch of the resumed proc's kernel, and the return to
// the caller as one of the last kernel run: Switches counts transfers of a
// kernel, not coroutine switches. A callback panic caught inside a proc is
// re-raised here as the *Panic onProc stored; a panic in a proc's body comes
// out of resume.
func (c *chain) drive(p *Proc) {
	for ; p != nil; p = c.pending {
		c.pending = nil
		p.K.cur = p
		p.K.switches++
		p.resume()
	}
	c.k.switches++
	if r := c.fault; r != nil {
		c.fault = nil
		panic(r)
	}
}

// step starts the chain's remaining kernels in order. It returns the first
// proc a kernel's loop makes runnable, or nil once every run has ended.
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

// onProc runs k's loop inside a proc and, once k's run ends there, the
// chain's remaining kernels. It returns the proc to resume next, or nil
// when the chain is done. A callback panic must not unwind the proc's body
// (its defers and recovers belong to the model, not to the event that
// failed), so it is caught here and stored, with its stack, for the
// resumer to re-raise, and the chain ends.
func (c *chain) onProc(k *Kernel) (next *Proc) {
	defer func() {
		if r := recover(); r != nil {
			c.fault, next = carry(r), nil
		}
	}()
	if next = k.loop(); next == nil {
		next = c.step()
	}
	return next
}

// loop is the kernel's one event loop. It pops and fires events in (at, seq)
// order until the run's bounds are reached, returning nil, or until a fired
// event makes a proc runnable, returning that proc for the caller to
// resume. It runs on the chain's resumer or inside a proc that blocked.
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
// finished deployment stops pinning memory. Each proc is suspended in a
// blocking call, or has not started; Shutdown resumes it with the kill flag
// set, and it unwinds before the resume returns — when Shutdown returns, no
// proc coroutine remains. The run is stopped first, so the exit path's loop
// fires nothing and yields straight back through the kernel's own chain,
// with no kernel left to start. A proc whose deferred cleanup blocks again
// is simply re-reaped on the next loop iteration. Must not be called from
// inside the simulation.
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
		c.drive(p) // kill unwind → exit path removes p from live
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
