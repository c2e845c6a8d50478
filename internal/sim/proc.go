package sim

import (
	"fmt"
	"time"
)

// Proc is a simulated thread of execution. Procs are backed by goroutines,
// but only one goroutine holds a kernel at a time: a proc's body executes
// between being handed the kernel and its next blocking call (Sleep,
// Chan.Pop, Cond.Wait, ...). There the proc runs the event loop itself until
// an event wakes a proc: if that is the proc itself it carries on with no
// goroutine switch, otherwise it hands the kernel straight to the woken proc
// and parks. This gives sequential, deterministic semantics while letting
// protocol code be written in a natural blocking style.
type Proc struct {
	K      *Kernel
	Name   string
	resume chan struct{}
	dead   bool
	killed bool

	// wakeFn is the proc's resume thunk, allocated once at spawn so that
	// Sleep/wake cycles schedule with zero allocations.
	wakeFn func()

	// Cond wait bookkeeping. A proc blocks on at most one Cond at a time,
	// so the per-wait state lives here instead of in per-wait heap nodes.
	// waitGen tags each wait; entries in a Cond's queue carry the tag, so
	// entries from an expired wait (timeout, kill) are recognized as stale
	// and skipped lazily — no O(n) removal, no retained "woken" list.
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

// GoAt spawns a proc that starts at time t.
func (k *Kernel) GoAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{K: k, Name: name, resume: make(chan struct{})}
	p.wakeFn = func() { k.schedule(p) }
	k.procs++
	k.live[p] = struct{}{}
	go func() {
		<-p.resume // wait for first scheduling
		if !p.killed {
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(procKilled); ok {
							return // Kill() unwound the proc
						}
						panic(r)
					}
				}()
				fn(p)
			}()
		}
		p.dead = true
		k.procs--
		delete(k.live, p)
		k.pass(p) // p is dead, so the kernel always moves on
	}()
	k.Schedule(t, p.wakeFn)
	return p
}

// procKilled is the panic payload used to unwind a killed proc.
type procKilled struct{}

// schedule is the body of p's wake event: it records p as the proc to run
// next, and the loop hands p the kernel as soon as the event returns.
func (k *Kernel) schedule(p *Proc) {
	if !p.dead {
		k.next = p
	}
}

// handOver gives the kernel to p, which resumes from its blocking call (or
// starts) on its own goroutine. The caller must not touch the kernel again
// until it is handed back.
func (k *Kernel) handOver(p *Proc) {
	k.cur = p
	k.switches++
	p.resume <- struct{}{}
}

// pass runs the event loop on p's goroutine after p blocked or exited, then
// passes the kernel on. It reports whether the next resume is p's own, in
// which case p simply continues. Otherwise the kernel has gone to the next
// proc; or the run's bounds were reached, p's goroutine went on with the
// rest of the run's chain (see chain), and has handed a later kernel to its
// proc or the chain back to its caller.
func (k *Kernel) pass(p *Proc) bool {
	k.cur = nil
	c := k.ch
	next := c.onProc(k)
	switch {
	case next == p:
		k.cur = p
		return true
	case next != nil:
		next.K.handOver(next)
	default:
		c.handBack()
	}
	return false
}

// block suspends p until its wake event fires. Meanwhile p's goroutine runs
// the event loop; see pass.
func (p *Proc) block() {
	k := p.K
	if k.cur != p {
		panic("sim: blocking call from a proc that is not running")
	}
	if !k.pass(p) {
		<-p.resume
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

// Kill terminates the proc the next time it would resume. A proc cannot kill
// itself; it should just return instead.
func (p *Proc) Kill() {
	if p.dead || p.killed {
		return
	}
	if p.K.cur == p {
		panic("sim: proc cannot Kill itself; return instead")
	}
	p.killed = true
	// Wake it so the kill panic unwinds it promptly. If it is currently
	// blocked on a Cond/Chan it will be resumed here; double resumes are
	// harmless because killed procs unwind immediately. Any Cond entry it
	// leaves behind is invalidated by bumping the wait generation.
	p.waitGen++
	p.waiting = false
	p.wakeAt(p.K.now)
}

// Dead reports whether the proc has finished.
func (p *Proc) Dead() bool { return p.dead }

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
	return p.waiting && p.waitGen == gen && !p.waitWoken &&
		!p.dead && !p.killed
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
