// Package trace is a lightweight, deterministic event tracer for the
// simulated testbed. Model components expose an optional Trace callback;
// attaching a Tracer records (virtual time, category, message) tuples into
// a bounded ring for debugging protocol behaviour — which write staged
// when, when its flush ACK fired, what a crash aborted, what recovery
// replayed. cmd/prdmasim exposes it via -trace.
package trace

import "fmt"

// Event is one recorded trace point.
type Event struct {
	// AtNanos is the virtual time in nanoseconds.
	AtNanos int64
	// Cat is the category ("rnic", "redolog", ...).
	Cat string
	// Msg is the formatted message.
	Msg string
}

// Tracer records events into a bounded ring buffer.
type Tracer struct {
	max    int
	events []Event
	start  int // ring start when full
	full   bool

	// now supplies virtual time; the tracer stays decoupled from the sim
	// package so any clock works.
	now func() int64
}

// New returns a tracer keeping at most max events (the newest win).
func New(now func() int64, max int) *Tracer {
	if max <= 0 {
		max = 4096
	}
	return &Tracer{max: max, now: now}
}

// Emit records one event. It is the function components call; pass it
// around as a value (`tracer.Emit`) so components need no trace import.
func (t *Tracer) Emit(cat, format string, args ...interface{}) {
	ev := Event{AtNanos: t.now(), Cat: cat, Msg: fmt.Sprintf(format, args...)}
	if len(t.events) < t.max {
		t.events = append(t.events, ev)
		return
	}
	// Ring: overwrite the oldest.
	t.full = true
	t.events[t.start] = ev
	t.start = (t.start + 1) % t.max
}

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	if !t.full {
		out := make([]Event, len(t.events))
		copy(out, t.events)
		return out
	}
	out := make([]Event, 0, t.max)
	for i := 0; i < t.max; i++ {
		out = append(out, t.events[(t.start+i)%t.max])
	}
	return out
}
