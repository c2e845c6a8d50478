package sim

import "time"

// Chan is an unbounded FIFO queue that procs can block on. It is the
// simulation analogue of a Go channel: Push never blocks (queues are
// unbounded; back-pressure is modelled explicitly where the paper models
// it), Pop blocks the calling proc until an item is available, and PopFunc
// hands the item to a callback instead.
//
// The queue is consumed through a head index (like Cond's waiter list) so
// the backing array survives drain/refill cycles: steady-state Push/Pop
// traffic reuses capacity instead of allocating. The Cond is embedded by
// value — a Chan is one heap object, not two.
type Chan[T any] struct {
	k     *Kernel
	head  int
	items []T
	cond  Cond
	// popFns queues the callbacks waiting in PopFunc, oldest first (from
	// fnHead). They share one Cond callback, deliver, built on first use.
	popFns  []func(T)
	fnHead  int
	deliver func()
}

// NewChan returns an empty queue bound to kernel k.
func NewChan[T any](k *Kernel) *Chan[T] {
	c := &Chan[T]{k: k}
	c.cond.K = k
	return c
}

// Push appends v and wakes one waiting proc.
func (c *Chan[T]) Push(v T) {
	if c.head > 0 && c.head == len(c.items) {
		c.items = c.items[:0]
		c.head = 0
	}
	c.items = append(c.items, v)
	c.cond.Signal()
}

// popFront removes and returns the head item; the queue must be non-empty.
func (c *Chan[T]) popFront() T {
	v := c.items[c.head]
	var zero T
	c.items[c.head] = zero // drop the reference for GC
	c.head++
	if c.head == len(c.items) {
		c.items = c.items[:0]
		c.head = 0
	}
	return v
}

// Pop removes and returns the head item, blocking p until one is available.
func (c *Chan[T]) Pop(p *Proc) T {
	for c.Len() == 0 {
		c.cond.Wait(p)
	}
	return c.popFront()
}

// PopFunc is Pop for a consumer that is a callback rather than a proc. fn
// receives the head item at once if the queue is non-empty; otherwise it
// waits on the queue's Cond as a callback waiter, and the Push that wakes it
// schedules the delivery in the FIFO slot a blocked proc's wake would take.
// A loop that calls PopFunc again once it has handled an item, directly or
// from the continuation of a delay it charged, fires the same events in the
// same order as a proc looping on Pop, and costs no goroutine.
func (c *Chan[T]) PopFunc(fn func(T)) {
	if c.Len() > 0 {
		fn(c.popFront())
		return
	}
	c.waitFunc(fn)
}

// waitFunc queues fn behind the callbacks already waiting.
func (c *Chan[T]) waitFunc(fn func(T)) {
	if c.deliver == nil {
		c.deliver = c.deliverHead
	}
	if c.fnHead > 0 && c.fnHead == len(c.popFns) {
		c.popFns = c.popFns[:0]
		c.fnHead = 0
	}
	c.popFns = append(c.popFns, fn)
	c.cond.WaitFunc(c.deliver)
}

// deliverHead is the wake of a PopFunc waiter. Callback wakes fire in the
// order their waiters queued, so this one belongs to the oldest queued fn.
// Like a proc woken in Pop, it waits again if another consumer took the
// item first.
func (c *Chan[T]) deliverHead() {
	fn := c.popFns[c.fnHead]
	c.popFns[c.fnHead] = nil
	c.fnHead++
	if c.Len() == 0 {
		c.waitFunc(fn)
		return
	}
	fn(c.popFront())
}

// TryPop removes and returns the head item without blocking.
func (c *Chan[T]) TryPop() (v T, ok bool) {
	if c.Len() == 0 {
		return v, false
	}
	return c.popFront(), true
}

// Len returns the number of queued items.
func (c *Chan[T]) Len() int { return len(c.items) - c.head }

// Drain removes and returns all queued items.
func (c *Chan[T]) Drain() []T {
	out := c.items[c.head:]
	c.items = nil
	c.head = 0
	return out
}

// Future is a one-shot completion carrying a value of type T. It is used
// for work completions: the producer calls Complete once, any number of
// procs may Wait. The Cond is embedded by value and the first Then callback
// lives in an inline slot, so the common RPC round trip (one future, one
// completion callback) costs a single allocation.
type Future[T any] struct {
	k     *Kernel
	done  bool
	val   T
	cond  Cond
	then0 func(T)
	then  []func(T)
}

// NewFuture returns an incomplete future.
func NewFuture[T any](k *Kernel) *Future[T] {
	f := &Future[T]{k: k}
	f.cond.K = k
	return f
}

// Complete resolves the future. Completing twice panics: completions in the
// models are unique events and a double completion is a protocol bug.
func (f *Future[T]) Complete(v T) {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	f.val = v
	f.cond.Broadcast()
	if fn := f.then0; fn != nil {
		f.then0 = nil
		fn(v)
	}
	for _, fn := range f.then {
		fn(v)
	}
	f.then = nil
}

// Then registers fn to run (at the completion event's virtual time) when the
// future resolves; if it already has, fn runs immediately.
func (f *Future[T]) Then(fn func(T)) {
	if f.done {
		fn(f.val)
		return
	}
	if f.then0 == nil && len(f.then) == 0 {
		f.then0 = fn
		return
	}
	f.then = append(f.then, fn)
}

// Done reports whether the future has resolved.
func (f *Future[T]) Done() bool { return f.done }

// Value returns the resolved value; valid only after Done.
func (f *Future[T]) Value() T { return f.val }

// Wait blocks p until the future resolves and returns its value.
func (f *Future[T]) Wait(p *Proc) T {
	for !f.done {
		f.cond.Wait(p)
	}
	return f.val
}

// WaitFunc is Wait for a callback: fn receives the value at once if the
// future has resolved, otherwise from a callback waiter that Complete
// schedules in the FIFO slot a waiting proc's wake would take. A pending
// wait allocates one closure.
func (f *Future[T]) WaitFunc(fn func(T)) {
	if f.done {
		fn(f.val)
		return
	}
	f.cond.WaitFunc(func() { fn(f.val) })
}

// WaitTimeout blocks p until the future resolves or d elapses. ok reports
// whether the future resolved.
func (f *Future[T]) WaitTimeout(p *Proc, d time.Duration) (v T, ok bool) {
	deadline := p.K.Now().Add(d)
	for !f.done {
		remain := deadline.Sub(p.K.Now())
		if remain <= 0 {
			return v, false
		}
		if !f.cond.WaitTimeout(p, remain) && !f.done {
			return v, false
		}
	}
	return f.val, true
}

// WaitGroup counts outstanding work items for procs.
type WaitGroup struct {
	k    *Kernel
	n    int
	cond Cond
}

// NewWaitGroup returns a WaitGroup bound to kernel k.
func NewWaitGroup(k *Kernel) *WaitGroup {
	w := &WaitGroup{k: k}
	w.cond.K = k
	return w
}

// Add increments the counter by delta.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.cond.Broadcast()
	}
}

// Done decrements the counter.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks p until the counter reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.n != 0 {
		w.cond.Wait(p)
	}
}
