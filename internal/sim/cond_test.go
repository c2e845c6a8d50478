package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestCondWaitTimeoutStaleTimer: a signaled proc that immediately re-waits
// must not be woken early by its previous wait's still-pending timeout.
func TestCondWaitTimeoutStaleTimer(t *testing.T) {
	k := New()
	c := NewCond(k)
	var first, second bool
	k.Go("w", func(p *Proc) {
		first = c.WaitTimeout(p, 10*time.Microsecond) // signaled at 5 µs
		// The first wait's timer is still pending for t=10 µs; it must not
		// terminate this wait, which times out at 5+20 = 25 µs.
		second = c.WaitTimeout(p, 20*time.Microsecond)
	})
	k.Schedule(Time(5*time.Microsecond), func() { c.Signal() })
	k.Run()
	if !first {
		t.Error("first wait should report signaled")
	}
	if second {
		t.Error("second wait should report timeout")
	}
	if k.Now() != Time(25*time.Microsecond) {
		t.Errorf("clock = %v: the stale 10µs timer ended the second wait early", k.Now())
	}
}

// TestCondSignalSkipsTimedOutWaiter: after a waiter times out, its lazily-
// deleted queue entry must not absorb a later Signal.
func TestCondSignalSkipsTimedOutWaiter(t *testing.T) {
	k := New()
	c := NewCond(k)
	var a, b bool
	k.Go("a", func(p *Proc) { a = c.WaitTimeout(p, 5*time.Microsecond) })
	k.GoAt(Time(time.Microsecond), "b", func(p *Proc) { b = c.WaitTimeout(p, 50*time.Microsecond) })
	k.Schedule(Time(10*time.Microsecond), func() { c.Signal() })
	k.Run()
	if a {
		t.Error("a should have timed out")
	}
	if !b {
		t.Error("signal should skip a's stale entry and wake b")
	}
	if n := len(c.waiters); n != 0 {
		t.Errorf("stale cond entries left behind: %d", n)
	}
}

// TestCondSignalTimeoutSameInstant pins the tie-break for a signal landing
// at the exact timeout instant: whichever event fires first wins, and the
// proc is woken exactly once either way.
func TestCondSignalTimeoutSameInstant(t *testing.T) {
	// Signal scheduled before the wait exists: its event sequence number is
	// lower than the timeout timer's, so the signal fires first and wins.
	k := New()
	c := NewCond(k)
	var res bool
	k.Go("w", func(p *Proc) { res = c.WaitTimeout(p, 10*time.Microsecond) })
	k.Schedule(Time(10*time.Microsecond), func() { c.Signal() })
	k.Run()
	if !res {
		t.Error("signal scheduled first should win the same-instant race")
	}

	// Signal scheduled after the wait began: the timeout timer's sequence
	// number is lower, the timeout fires first, and the signal must treat
	// the entry as stale rather than double-waking the proc.
	k2 := New()
	c2 := NewCond(k2)
	var res2 bool
	woken := 0
	k2.Go("w", func(p *Proc) {
		res2 = c2.WaitTimeout(p, 10*time.Microsecond)
		woken++
	})
	k2.Schedule(Time(5*time.Microsecond), func() {
		k2.Schedule(Time(10*time.Microsecond), func() { c2.Signal() })
	})
	k2.Run()
	if res2 {
		t.Error("timeout scheduled first should win the same-instant race")
	}
	if woken != 1 {
		t.Errorf("proc woken %d times, want exactly 1", woken)
	}
}

// TestCondNoStaleBookkeeping: signaled procs that never wait again must
// leave the Cond completely empty — the regression this guards against kept
// a "woken" record per signaled proc forever.
func TestCondNoStaleBookkeeping(t *testing.T) {
	k := New()
	c := NewCond(k)
	done := 0
	for i := 0; i < 3; i++ {
		k.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			if !c.WaitTimeout(p, time.Millisecond) {
				t.Errorf("waiter timed out")
			}
			done++
		})
	}
	for i := 1; i <= 3; i++ {
		k.Schedule(Time(i)*Time(time.Microsecond), func() { c.Signal() })
	}
	k.Run()
	if done != 3 {
		t.Fatalf("signaled %d waiters, want 3", done)
	}
	if n := len(c.waiters); n != 0 {
		t.Errorf("cond retains %d entries after all waits ended", n)
	}
}

// TestCondBroadcastMixedStaleness: Broadcast over a queue containing live
// entries, a timed-out one, and the stale entry of a proc that timed out and
// waits again wakes exactly the live waits, each once.
func TestCondBroadcastMixedStaleness(t *testing.T) {
	k := New()
	c := NewCond(k)
	var live1, live2, timedOut bool
	rewaits := 0
	k.Go("timeout", func(p *Proc) { timedOut = !c.WaitTimeout(p, 2*time.Microsecond) })
	k.Go("rewaiter", func(p *Proc) {
		for !c.WaitTimeout(p, 3*time.Microsecond) {
			rewaits++
		}
	})
	k.GoAt(Time(time.Microsecond), "live1", func(p *Proc) { live1 = c.WaitTimeout(p, time.Second) })
	k.GoAt(Time(time.Microsecond), "live2", func(p *Proc) {
		c.Wait(p)
		live2 = true
	})
	k.Schedule(Time(5*time.Microsecond), func() { c.Broadcast() })
	k.Run()
	if !timedOut {
		t.Error("timeout waiter should have timed out before the broadcast")
	}
	if !live1 || !live2 || rewaits != 1 {
		t.Errorf("live waiters not woken once: live1=%v live2=%v rewaiter timeouts=%d, want 1", live1, live2, rewaits)
	}
	if n := len(c.waiters); n != 0 {
		t.Errorf("stale cond entries left behind: %d", n)
	}
}
