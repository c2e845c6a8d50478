package sim

import (
	"testing"
	"time"
)

func TestKernelEventOrdering(t *testing.T) {
	k := New()
	var got []int
	k.After(30*time.Microsecond, func() { got = append(got, 3) })
	k.After(10*time.Microsecond, func() { got = append(got, 1) })
	k.After(20*time.Microsecond, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != Time(30*time.Microsecond) {
		t.Fatalf("clock = %v, want 30us", k.Now())
	}
}

func TestKernelTieBreakBySequence(t *testing.T) {
	k := New()
	var got []int
	at := Time(5 * time.Microsecond)
	for i := 0; i < 10; i++ {
		i := i
		k.At(at, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break violated at %d: %v", i, got)
		}
	}
}

func TestKernelSchedulingInPastPanics(t *testing.T) {
	k := New()
	k.After(time.Millisecond, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	k.At(Time(time.Microsecond), func() {})
}

func TestKernelRunUntil(t *testing.T) {
	k := New()
	fired := 0
	k.After(time.Millisecond, func() { fired++ })
	k.After(3*time.Millisecond, func() { fired++ })
	k.RunUntil(Time(2 * time.Millisecond))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != Time(2*time.Millisecond) {
		t.Fatalf("clock = %v, want 2ms", k.Now())
	}
	k.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestTimerStop(t *testing.T) {
	k := New()
	fired := false
	tm := k.After(time.Millisecond, func() { fired = true })
	tm.Stop()
	k.Run()
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestKernelStop(t *testing.T) {
	k := New()
	n := 0
	var reschedule func()
	reschedule = func() {
		n++
		if n == 5 {
			k.Stop()
		}
		k.After(time.Microsecond, reschedule)
	}
	k.After(time.Microsecond, reschedule)
	k.Run()
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
}

func TestProcSleepAndOrdering(t *testing.T) {
	k := New()
	var got []string
	k.Go("a", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		got = append(got, "a10")
		p.Sleep(20 * time.Microsecond)
		got = append(got, "a30")
	})
	k.Go("b", func(p *Proc) {
		p.Sleep(20 * time.Microsecond)
		got = append(got, "b20")
	})
	k.Run()
	want := []string{"a10", "b20", "a30"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if k.Procs() != 0 {
		t.Fatalf("leaked procs: %d", k.Procs())
	}
}

// TestProcYield checks that a zero sleep yields: the proc resumes after the
// other events pending at the same timestamp.
func TestProcYield(t *testing.T) {
	k := New()
	var got []int
	k.Go("a", func(p *Proc) {
		got = append(got, 1)
		p.Sleep(0)
		got = append(got, 3)
	})
	k.Go("b", func(p *Proc) {
		got = append(got, 2)
	})
	k.Run()
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("yield ordering: %v", got)
		}
	}
}

// TestProcKill: Shutdown kills a sleeping proc; it unwinds through its
// defers without running past the blocking call.
func TestProcKill(t *testing.T) {
	k := New()
	reached, unwound := false, false
	k.Go("victim", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(time.Second)
		reached = true
	})
	k.RunFor(time.Millisecond)
	k.Shutdown()
	if reached || !unwound {
		t.Fatalf("killed proc: ran past its sleep %v, unwound %v", reached, unwound)
	}
	if k.Procs() != 0 {
		t.Fatalf("leaked procs: %d", k.Procs())
	}
}

// TestProcKillWhileWaitingOnCond: Shutdown kills a proc blocked in
// Cond.Wait; the wait never returns.
func TestProcKillWhileWaitingOnCond(t *testing.T) {
	k := New()
	c := NewCond(k)
	k.Go("waiter", func(p *Proc) {
		c.Wait(p)
		t.Error("wait returned on killed proc")
	})
	k.Run()
	if k.Procs() != 1 {
		t.Fatalf("waiter not blocked: %d procs", k.Procs())
	}
	k.Shutdown()
	if k.Procs() != 0 {
		t.Fatalf("leaked procs: %d", k.Procs())
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	k := New()
	c := NewCond(k)
	var got []int
	for i := 0; i < 3; i++ {
		i := i
		k.Go("w", func(p *Proc) {
			c.Wait(p)
			got = append(got, i)
		})
	}
	k.After(time.Millisecond, func() { c.Signal() })
	k.After(2*time.Millisecond, func() { c.Signal() })
	k.After(3*time.Millisecond, func() { c.Signal() })
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestCondBroadcast(t *testing.T) {
	k := New()
	c := NewCond(k)
	n := 0
	for i := 0; i < 5; i++ {
		k.Go("w", func(p *Proc) {
			c.Wait(p)
			n++
		})
	}
	k.After(time.Millisecond, func() { c.Broadcast() })
	k.Run()
	if n != 5 {
		t.Fatalf("woke %d of 5", n)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	k := New()
	c := NewCond(k)
	var timedOut, signaled bool
	k.Go("t", func(p *Proc) {
		timedOut = !c.WaitTimeout(p, time.Millisecond)
	})
	k.Go("s", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		c.Signal() // no waiters left; must be a no-op
	})
	k.Run()
	if !timedOut {
		t.Fatal("expected timeout")
	}

	k2 := New()
	c2 := NewCond(k2)
	k2.Go("t", func(p *Proc) {
		signaled = c2.WaitTimeout(p, 10*time.Millisecond)
	})
	k2.After(time.Millisecond, func() { c2.Signal() })
	k2.Run()
	if !signaled {
		t.Fatal("expected signal before timeout")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		k := New()
		rng := NewRand(42)
		var trace []int64
		for i := 0; i < 50; i++ {
			k.GoAt(Time(rng.Intn(1000))*Time(time.Microsecond), "p", func(p *Proc) {
				p.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
				trace = append(trace, int64(p.Now()))
			})
		}
		k.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0).Add(3 * time.Microsecond)
	if tm.Sub(Time(time.Microsecond)) != 2*time.Microsecond {
		t.Fatal("Sub wrong")
	}
	if tm.Duration() != 3*time.Microsecond {
		t.Fatal("Duration wrong")
	}
	if tm.String() != "3µs" {
		t.Fatalf("String = %q", tm.String())
	}
}

func TestKernelSmallAccessors(t *testing.T) {
	k := New()
	if k.Pending() != 0 {
		t.Fatal("pending not 0")
	}
	k.After(time.Millisecond, func() {})
	if k.Pending() != 1 {
		t.Fatal("pending not 1")
	}
	k.RunFor(2 * time.Millisecond)
	if k.Now() != Time(time.Millisecond) {
		t.Fatalf("clock = %v after RunFor past the last event", k.Now())
	}
	// Negative After clamps to now.
	fired := false
	k.After(-time.Second, func() { fired = true })
	k.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
}

func TestProcAccessors(t *testing.T) {
	k := New()
	p := k.Go("named", func(p *Proc) { p.Sleep(time.Second) })
	k.RunFor(time.Millisecond)
	if p.String() != "proc(named)" {
		t.Fatalf("String = %q", p.String())
	}
	k.Shutdown()
	k.Shutdown() // idempotent
	if k.Procs() != 0 {
		t.Fatalf("%d procs after Shutdown", k.Procs())
	}
}
