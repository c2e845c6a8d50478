//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"time"
)

// Proc is a simulated thread of execution. Each proc's body runs in a
// runtime coroutine (iter.Pull), and only one body holds a kernel at a
// time: it executes between being resumed and its next blocking call
// (Sleep, Chan.Pop, Cond.Wait, ...). There the proc runs the event loop
// itself until an event wakes a proc: if that is the proc itself it carries
// on with no switch, otherwise it records the woken proc on its chain and
// yields to the chain's resumer, which resumes that proc next. This gives
// sequential, deterministic semantics while letting protocol code be
// written in a natural blocking style.
type Proc struct {
	K      *Kernel
	Name   string
	killed bool

	// resume runs the body, with its caller suspended, until the body
	// yields or returns; yield, called from the body, returns control to
	// the resumer.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool

	// wakeFn is the proc's resume thunk, allocated once at spawn so that
	// Sleep/wake cycles schedule with zero allocations.
	wakeFn func()

	// Cond wait bookkeeping. A proc blocks on at most one Cond at a time,
	// so the per-wait state lives here instead of in per-wait heap nodes.
	// waitGen tags each wait; entries in a Cond's queue carry the tag, so
	// entries from an expired wait (timeout, Shutdown) are recognized as
	// stale and skipped lazily — no O(n) removal, no retained "woken" list.
	waitGen      uint64
	waiting      bool
	waitWoken    bool
	waitSignaled bool
}

// Go spawns a new proc that starts executing at the current virtual time
// (after already-scheduled events at the same timestamp).
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	return k.GoAt(k.now, name, fn)
}

// GoAt spawns a proc that starts at time t. Its wake event only records it
// as the proc to run next; the loop hands it the kernel once the event
// returns.
func (k *Kernel) GoAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{K: k, Name: name}
	p.wakeFn = func() { k.next = p }
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		if !p.killed {
			fn(p)
		}
	})
	k.procs++
	k.live[p] = struct{}{}
	k.Schedule(t, p.wakeFn)
	return p
}

// procKilled is the panic payload that unwinds a proc Shutdown reaps.
type procKilled struct{}

// exit retires p once its body returns or unwinds. A kill unwind ends like
// a return: p runs the loop once more, and the chain goes on with the proc
// it records. Any other panic goes on to the resumer, whose resume call
// re-raises it as a *Panic that carries the body's stack.
func (p *Proc) exit() {
	k := p.K
	k.procs--
	delete(k.live, p)
	if r := recover(); r != nil {
		if _, ok := r.(procKilled); !ok {
			k.cur = nil
			panic(carry(r))
		}
	}
	k.pass(p)
}

// pass runs the event loop for p, which just blocked or exited, and reports
// whether the next resume is p's own, in which case p simply continues.
// Otherwise it records for the chain's resumer the proc to resume next, or
// nil once the run's bounds were reached and the chain's remaining kernels
// ran with no proc to wake.
func (k *Kernel) pass(p *Proc) bool {
	k.cur = nil
	c := k.ch
	next := c.onProc(k)
	if next == p {
		k.cur = p
		return true
	}
	c.pending = next
	return false
}

// block suspends p until its wake event fires. Meanwhile p runs the event
// loop; see pass.
func (p *Proc) block() {
	k := p.K
	if k.cur != p {
		panic("sim: blocking call from a proc that is not running")
	}
	if !k.pass(p) {
		p.yield(struct{}{})
	}
	if p.killed {
		panic(procKilled{})
	}
}

// wakeAt schedules p to resume at time t.
func (p *Proc) wakeAt(t Time) {
	p.K.Schedule(t, p.wakeFn)
}

// Sleep suspends the proc for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.wakeAt(p.K.now.Add(d))
	p.block()
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.K.Now() }

func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.Name) }

// beginWait opens a Cond wait and returns its generation tag.
func (p *Proc) beginWait() uint64 {
	p.waitGen++
	p.waiting = true
	p.waitWoken = false
	p.waitSignaled = false
	return p.waitGen
}

// endWait closes the wait and reports whether it ended by Signal/Broadcast
// (false = timeout). Closing bumps nothing: the generation only advances on
// the next beginWait, and stale queue entries are skipped via !waiting.
func (p *Proc) endWait() bool {
	p.waiting = false
	return p.waitSignaled
}

// waitActive reports whether p is still blocked in the wait tagged gen and
// has not yet been woken by anyone (signal or timeout).
func (p *Proc) waitActive(gen uint64) bool {
	return p.waiting && p.waitGen == gen && !p.waitWoken
}

// Cond is a waiting list that procs can block on, and callbacks can queue
// on, until signaled. Unlike sync.Cond there is no associated lock: the
// simulation is single-threaded, so state checked before Wait cannot change
// until the proc blocks.
//
// The queue uses lazy deletion: a wait that ends by timeout or kill leaves
// its entry behind, tagged with a generation that no longer matches, and
// Signal/Broadcast skip such entries when they surface. This makes the
// timeout path O(1) and leaves no per-Cond bookkeeping behind for procs
// that never wait again.
//
// The queue is consumed through a head index rather than re-slicing, so the
// backing array survives drain/refill cycles and steady-state Wait/Signal
// traffic never allocates.
type Cond struct {
	K       *Kernel
	head    int
	waiters []condEntry
}

// condEntry is one queued wait: a proc, whose gen guards against the proc
// having since timed out, been killed, or started a different wait; or a
// callback waiter (fn set), which is never stale.
type condEntry struct {
	p   *Proc
	gen uint64
	fn  func()
}

// NewCond returns a Cond bound to kernel k.
func NewCond(k *Kernel) *Cond { return &Cond{K: k} }

// enqueue appends a wait entry, first compacting a fully-consumed queue so
// the append reuses the existing backing array.
func (c *Cond) enqueue(e condEntry) {
	if c.head > 0 && c.head == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.head = 0
	}
	c.waiters = append(c.waiters, e)
}

// dequeue pops the head entry; ok is false when the queue is empty.
func (c *Cond) dequeue() (e condEntry, ok bool) {
	if c.head == len(c.waiters) {
		return condEntry{}, false
	}
	e = c.waiters[c.head]
	c.waiters[c.head] = condEntry{} // drop the proc reference
	c.head++
	if c.head == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.head = 0
	}
	return e, true
}

// Wait blocks p until Signal or Broadcast. Spurious wakeups do not occur,
// but callers typically still re-check their predicate in a loop because
// another woken proc may consume the state first.
func (c *Cond) Wait(p *Proc) {
	gen := p.beginWait()
	c.enqueue(condEntry{p: p, gen: gen})
	p.block()
	p.endWait()
}

// WaitTimeout blocks p until signaled or until d elapses. It reports whether
// the proc was signaled (false = timeout).
func (c *Cond) WaitTimeout(p *Proc, d time.Duration) bool {
	gen := p.beginWait()
	c.enqueue(condEntry{p: p, gen: gen})
	p.K.AfterFunc(d, func() {
		// Fires for every timed wait; a no-op unless p is still blocked
		// in this exact wait and unsignaled. The queue entry is left for
		// Signal to skip lazily.
		if p.waitActive(gen) {
			p.waitWoken = true
			p.wakeAt(p.K.now)
		}
	})
	p.block()
	return p.endWait()
}

// WaitFunc queues fn as a callback waiter. The Signal or Broadcast that
// reaches it schedules fn at the current time, in the FIFO slot a waiting
// proc's wake would take, so a callback consumer sees the same events in
// the same order as a proc blocked in Wait. A callback waiter cannot time
// out. The caller builds fn once and reuses it, so waiting allocates
// nothing in steady state.
func (c *Cond) WaitFunc(fn func()) {
	c.enqueue(condEntry{fn: fn})
}

// wake schedules the wakeup of e and reports whether e was still waiting.
func (c *Cond) wake(e condEntry) bool {
	if e.fn != nil {
		c.K.Schedule(c.K.now, e.fn)
		return true
	}
	if !e.p.waitActive(e.gen) {
		return false // stale: timed out, killed, dead, or a later wait
	}
	e.p.waitWoken = true
	e.p.waitSignaled = true
	e.p.wakeAt(c.K.now)
	return true
}

// Signal wakes the longest-waiting proc or callback, if any.
func (c *Cond) Signal() {
	for {
		e, ok := c.dequeue()
		if !ok || c.wake(e) {
			return
		}
	}
}

// Broadcast wakes every waiter. Waking only schedules resume events — no
// proc or callback runs inside the loop — so nothing can enqueue while it
// drains.
func (c *Cond) Broadcast() {
	for {
		e, ok := c.dequeue()
		if !ok {
			return
		}
		c.wake(e)
	}
}
