package sim

import (
	"fmt"
	"runtime/debug"
)

// Panic is a panic the simulation re-raises on another stack than the one
// it was raised on: a proc body's (its coroutine), a callback's caught
// inside a proc, an engine helper's. Value is the original panic value;
// Stack is the stack at the first recover, which still holds the frames of
// the function that panicked.
type Panic struct {
	Value any
	Stack []byte
}

func (p *Panic) Error() string { return fmt.Sprintf("%v\n\n%s", p.Value, p.Stack) }

// carry returns what to re-raise for r, just recovered: r itself when it is
// already a *Panic, else r with the current stack. Call it from the deferred
// function that recovered r.
func carry(r any) *Panic {
	if p, ok := r.(*Panic); ok {
		return p
	}
	return &Panic{Value: r, Stack: debug.Stack()}
}
