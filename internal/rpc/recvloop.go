package rpc

import (
	"prdma/internal/host"
	"prdma/internal/sim"
)

// recvLoop is a receive loop that runs as kernel callbacks rather than as
// a proc: a server polling its request ring, CQ or redo log, or a client
// polling its response ring (Fig. 2, §4.2). Between pops these loops only
// charge delays and make non-blocking calls, so each blocking call a proc
// would make is one scheduling call at the same point: the start one
// Schedule at the current time, Pop a PopFunc, the poll delay a
// PollDelayFunc. The loop fires the same events in the same order as a
// proc running the same steps would, but spawns no goroutine and costs no
// switch.
//
// The closures are built once per loop, and the item between its pop and
// its poll delay waits in cur, so an iteration allocates nothing. A handler
// that charges a further delay keeps what it needs in variables of the
// function that built it, next to its prebuilt continuation.
type recvLoop[T any] struct {
	h   *host.Host
	src *sim.Chan[T]
	// live is the loop condition, checked before every pop.
	live func() bool
	// handle processes an item once its poll delay has elapsed and reports
	// whether the loop pops again now. A handler that charges a further
	// delay returns false and calls next from that delay's continuation;
	// one that returns false without doing so ends the loop.
	handle func(T) bool

	cur    T
	held   bool // cur holds an item whose poll delay is being charged
	popped func(T)
	// next runs when the poll delay of the item in cur has elapsed, and
	// begins each iteration: the live check, then the pop.
	next func()
}

// newRecvLoop builds a loop that pops src on h's kernel while live holds.
// Set its handler with start.
func newRecvLoop[T any](h *host.Host, src *sim.Chan[T], live func() bool) *recvLoop[T] {
	l := &recvLoop[T]{h: h, src: src, live: live}
	l.popped = func(v T) {
		l.cur, l.held = v, true
		l.h.PollDelayFunc(l.next)
	}
	l.next = func() {
		if l.held {
			v := l.cur
			var zero T
			l.cur, l.held = zero, false
			if !l.handle(v) {
				return
			}
		}
		if l.live() {
			l.src.PopFunc(l.popped)
		}
	}
	return l
}

// start installs handle and books the loop's first iteration at the
// current time, in the slot a proc spawned now would start in.
func (l *recvLoop[T]) start(handle func(T) bool) {
	l.handle = handle
	k := l.h.K
	k.Schedule(k.Now(), l.next)
}
