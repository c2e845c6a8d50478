package sim

import (
	"testing"
	"time"
)

// BenchmarkKernelEvents measures raw event dispatch throughput on the
// allocation-free AfterFunc path — the floor under every experiment's
// wall-clock time. The event free list makes this 0 allocs/op.
func BenchmarkKernelEvents(b *testing.B) {
	k := New()
	b.ReportAllocs()
	n := 0
	var reschedule func()
	reschedule = func() {
		n++
		if n < b.N {
			k.AfterFunc(time.Microsecond, reschedule)
		}
	}
	k.AfterFunc(time.Microsecond, reschedule)
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelEventsDeep measures dispatch with 4096 events live in the
// heap — the regime the heap arity was chosen on. Each fired event
// reschedules itself at a varied offset so the sift paths see real churn
// (a singleton heap never exercises them).
func BenchmarkKernelEventsDeep(b *testing.B) {
	const depth = 4096
	k := New()
	b.ReportAllocs()
	n := 0
	fns := make([]func(), depth)
	for i := 0; i < depth; i++ {
		// Offsets vary per slot and per firing so the heap keeps mixing.
		slot := i
		fns[i] = func() {
			n++
			if n < b.N {
				k.AfterFunc(time.Duration(1+(slot*2654435761+n)%1024)*time.Nanosecond, fns[slot])
			}
		}
		k.AfterFunc(time.Duration(1+slot)*time.Nanosecond, fns[i])
	}
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelEventsTimer is the same loop via After, which returns a
// cancel handle: the one remaining alloc/op is the Timer itself. Callers
// that discard the handle should use AfterFunc (see BenchmarkKernelEvents).
func BenchmarkKernelEventsTimer(b *testing.B) {
	k := New()
	b.ReportAllocs()
	n := 0
	var reschedule func()
	reschedule = func() {
		n++
		if n < b.N {
			k.After(time.Microsecond, reschedule)
		}
	}
	k.After(time.Microsecond, reschedule)
	b.ResetTimer()
	k.Run()
}

// BenchmarkTimerCancel measures the schedule+Stop cycle: the canceled event
// is lazily deleted when it surfaces, then recycled through the free list.
func BenchmarkTimerCancel(b *testing.B) {
	k := New()
	b.ReportAllocs()
	n := 0
	var reschedule func()
	reschedule = func() {
		n++
		if n < b.N {
			// A decoy timer that is always canceled before it fires:
			// each iteration exercises push, Stop, lazy deletion, and
			// free-list recycling.
			decoy := k.After(time.Millisecond, func() { b.Fatal("canceled timer fired") })
			k.AfterFunc(time.Microsecond, reschedule)
			decoy.Stop()
		}
	}
	k.AfterFunc(time.Microsecond, reschedule)
	b.ResetTimer()
	k.Run()
	if pending := k.Pending(); pending != 0 {
		b.Fatalf("live events left after run: %d", pending)
	}
}

// sleeper is BenchmarkProcSwitch's proc: n sleeps of 1 µs.
func sleeper(k *Kernel, n int) {
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	})
}

// pingPong is BenchmarkProcPingPong's pair: n round trips of one token
// through a Chan each way, so every resume wakes the other proc.
func pingPong(k *Kernel, n int) {
	ping, pong := NewChan[int](k), NewChan[int](k)
	k.Go("ping", func(p *Proc) {
		for i := 0; i < n; i++ {
			ping.Push(i)
			pong.Pop(p)
		}
	})
	k.Go("pong", func(p *Proc) {
		for i := 0; i < n; i++ {
			pong.Push(ping.Pop(p))
		}
	})
}

// BenchmarkProcSwitch measures a proc sleep/wake cycle. A lone sleeping
// proc runs the event loop itself and its next resume is its own, so the
// cycle costs no goroutine switch at all; the cached per-proc wake thunk
// makes it 0 allocs/op (TestProcAllocRegression pins both).
func BenchmarkProcSwitch(b *testing.B) {
	k := New()
	b.ReportAllocs()
	sleeper(k, b.N)
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcPingPong measures the direct handoff between two procs: they
// bounce a token through a Chan each way, so every resume wakes the other
// proc and costs exactly one goroutine switch. One iteration is a round
// trip, two resumes.
func BenchmarkProcPingPong(b *testing.B) {
	k := New()
	b.ReportAllocs()
	pingPong(k, b.N)
	b.ResetTimer()
	k.Run()
}

// BenchmarkResourceReserve measures the FIFO resource hot path.
func BenchmarkResourceReserve(b *testing.B) {
	k := New()
	r := NewResource(k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reserve(time.Nanosecond)
	}
}

// BenchmarkChanPushPop measures the proc queue hot path.
func BenchmarkChanPushPop(b *testing.B) {
	k := New()
	c := NewChan[int](k)
	b.ReportAllocs()
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Pop(p)
		}
	})
	k.Go("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Push(i)
			p.Sleep(0)
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkCondSignalTimeout measures the WaitTimeout signal path: the lazy
// wait-queue must not accumulate stale entries across iterations.
func BenchmarkCondSignalTimeout(b *testing.B) {
	k := New()
	c := NewCond(k)
	b.ReportAllocs()
	k.Go("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if !c.WaitTimeout(p, time.Millisecond) {
				b.Fatal("timed out under steady signaling")
			}
		}
	})
	k.Go("signaler", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Signal()
			p.Sleep(0)
		}
	})
	b.ResetTimer()
	k.Run()
	if n := len(c.waiters); n != 0 {
		b.Fatalf("stale cond entries left: %d", n)
	}
}
