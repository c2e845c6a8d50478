package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// handoffSchedule books a proc-heavy schedule on k that exercises every way
// the kernel changes hands: sleepers whose next resume is often their own, a
// Cond signal and a Cond timeout, a Chan round trip, a canceled timer, and a
// proc left waiting for Shutdown to kill. Every step appends "time label"
// to trace.
func handoffSchedule(k *Kernel, trace *[]string) {
	log := func(format string, args ...any) {
		*trace = append(*trace, fmt.Sprintf("%d %s", k.Now(), fmt.Sprintf(format, args...)))
	}
	us := time.Microsecond
	for i := 0; i < 2; i++ {
		i := i
		k.Go("sleeper", func(p *Proc) {
			for j := 0; j < 4; j++ {
				p.Sleep(time.Duration(i+1) * us)
				log("sleeper%d step%d", i, j)
			}
		})
	}

	c := NewCond(k)
	k.Go("signaled", func(p *Proc) {
		log("signaled woke ok=%v", c.WaitTimeout(p, 10*us))
	})
	k.Go("timeout", func(p *Proc) {
		p.Sleep(4 * us) // starts waiting after the signal, so it times out
		log("timeout woke ok=%v", c.WaitTimeout(p, 2*us))
	})
	k.Go("signaler", func(p *Proc) {
		p.Sleep(3 * us)
		c.Signal()
		log("signal")
	})

	ch := NewChan[int](k)
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			log("pop %d", ch.Pop(p))
		}
	})
	k.Go("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			ch.Push(i)
			p.Sleep(0)
			p.Sleep(us)
		}
	})

	decoy := k.After(5*us, func() { log("canceled timer fired") })
	k.AfterFunc(2*us, func() { decoy.Stop() })

	idle := NewCond(k)
	k.Go("victim", func(p *Proc) {
		defer log("victim unwound")
		idle.Wait(p)
		log("victim woke")
	})
}

// TestRunEventsBoundary pins the crash sweeps' coordinate: stopping at any
// event index with RunEvents and resuming with Run must replay exactly the
// schedule a single Run produces, however the procs handed the kernel around
// across the boundary.
func TestRunEventsBoundary(t *testing.T) {
	var want []string
	ref := New()
	handoffSchedule(ref, &want)
	ref.Run()
	total := ref.Fired()
	if ref.Procs() != 1 {
		t.Fatalf("reference run left %d procs, want the victim", ref.Procs())
	}
	ref.Shutdown()
	all := fmt.Sprint(want)
	for _, s := range []string{"signaled woke ok=true", "timeout woke ok=false", "pop 2", "victim unwound"} {
		if !strings.Contains(all, s) {
			t.Fatalf("reference trace lacks %q: %v", s, want)
		}
	}
	if strings.Contains(all, "victim woke") || strings.Contains(all, "canceled") {
		t.Fatalf("killed proc or canceled timer ran: %v", want)
	}
	same := func(got []string) bool {
		return fmt.Sprint(got) == fmt.Sprint(want)
	}

	for n := uint64(0); n <= total+2; n++ {
		var got []string
		k := New()
		handoffSchedule(k, &got)
		ran := k.RunEvents(n)
		if wantRan := min(n, total); ran != wantRan || k.Fired() != wantRan {
			t.Fatalf("RunEvents(%d) ran %d (Fired %d), want %d", n, ran, k.Fired(), wantRan)
		}
		k.Run()
		k.Shutdown()
		if !same(got) || k.Fired() != total || k.Procs() != 0 {
			t.Fatalf("RunEvents(%d)+Run: fired %d procs %d trace\n%v\nwant fired %d trace\n%v",
				n, k.Fired(), k.Procs(), got, total, want)
		}
	}

	// Single-stepping is the extreme case: every event ends a run.
	var got []string
	k := New()
	handoffSchedule(k, &got)
	for k.RunEvents(1) == 1 {
	}
	k.Shutdown()
	if !same(got) || k.Fired() != total {
		t.Fatalf("single-stepped: fired %d trace\n%v\nwant fired %d trace\n%v", k.Fired(), got, total, want)
	}
}

// TestStopFromProc: Stop called in a proc body ends the run once that proc
// blocks, before any later event — even one booked at the same instant.
func TestStopFromProc(t *testing.T) {
	k := New()
	var trace []string
	k.AfterFunc(500*time.Nanosecond, func() { trace = append(trace, "early") })
	k.Go("stopper", func(p *Proc) {
		p.Sleep(time.Microsecond)
		k.Stop()
		trace = append(trace, "stop")
		k.AfterFunc(0, func() { trace = append(trace, "same-time") })
		p.Sleep(time.Microsecond)
		trace = append(trace, "after")
	})
	if ran := k.RunEvents(100); ran != 3 {
		t.Fatalf("stopped run fired %d events, want 3 (start, early, wake)", ran)
	}
	if s := fmt.Sprint(trace); s != "[early stop]" || k.Now() != Time(time.Microsecond) {
		t.Fatalf("after Stop: trace %s at %v, want [early stop] at 1µs", s, k.Now())
	}
	k.Run()
	if s := fmt.Sprint(trace); s != "[early stop same-time after]" || k.Fired() != 5 {
		t.Fatalf("resumed run: trace %s fired %d", s, k.Fired())
	}
}

// explode panics with v from a named frame, which the stack a re-raised
// panic carries must show.
func explode(v any) { panic(v) }

// recoverRun calls run and returns the value it panicked with and the stack
// of the panic: the one a *Panic carries, or, for a panic that was never
// re-raised, the stack at the recover, which still holds the panicking
// frames.
func recoverRun(run func()) (value any, stack string) {
	defer func() {
		r := recover()
		if p, ok := r.(*Panic); ok {
			value, stack = p.Value, string(p.Stack)
			return
		}
		value, stack = r, string(debug.Stack())
	}()
	run()
	return nil, ""
}

// checkPanic fails t unless run panicked with want, on a stack that names
// the panicking function.
func checkPanic(t *testing.T, what string, got any, stack string, want any) {
	t.Helper()
	if got != want {
		t.Fatalf("%s panicked with %v, want %v", what, got, want)
	}
	if !strings.Contains(stack, "sim.explode(") {
		t.Fatalf("%s: the panic's stack does not name the panicking function:\n%s", what, stack)
	}
}

// TestCallbackPanicOnProcReachesCaller: a callback that panics while a proc
// goroutine runs the loop must surface to the Run caller with its own value
// and the stack it panicked on, and the kernel must still shut down
// cleanly. Without the transfer the panic would unwind the proc's goroutine
// and crash the process.
func TestCallbackPanicOnProcReachesCaller(t *testing.T) {
	start := runtime.NumGoroutine()
	k := New()
	boom := fmt.Errorf("boom")
	k.Go("bystander", func(p *Proc) { p.Sleep(time.Hour) })
	k.Go("owner", func(p *Proc) {
		// The callback fires from the loop this proc runs once it blocks.
		k.AfterFunc(time.Microsecond, func() { explode(boom) })
		p.Sleep(2 * time.Microsecond)
		t.Error("owner resumed past the panic")
	})
	got, stack := recoverRun(k.Run)
	checkPanic(t, "Run", got, stack, boom)
	fired := k.Fired()
	k.Shutdown()
	if k.Procs() != 0 || k.Fired() != fired {
		t.Fatalf("Shutdown left %d procs and fired %d events, want 0 and 0", k.Procs(), k.Fired()-fired)
	}
	waitGoroutines(t, start)
}

// waitGoroutines fails t unless the goroutine count falls back to start
// within a few seconds: every proc's coroutine must be gone.
func waitGoroutines(t *testing.T, start int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after Shutdown, %d before the kernel", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProcPanicReachesCaller: a panic in a proc's body reaches the caller of
// Run with its own value and the body's stack: on a standalone kernel, and
// on an engine at workers 1 and 2, where the panicking proc's kernel runs
// on the helper worker in a window shared with the other kernel. Shutdown
// then reaps the other proc and leaves no goroutine behind.
func TestProcPanicReachesCaller(t *testing.T) {
	start := runtime.NumGoroutine()
	boom := fmt.Errorf("boom in a proc body")
	for _, workers := range []int{0, 1, 2} {
		var ks []*Kernel
		var run, shutdown func()
		if workers == 0 {
			k := New()
			ks, run, shutdown = []*Kernel{k, k}, k.Run, k.Shutdown
		} else {
			e := NewEngine(100, workers)
			ks, run, shutdown = []*Kernel{e.NewKernel(), e.NewKernel()}, e.Run, e.Shutdown
		}
		ks[0].Go("bystander", func(p *Proc) {
			for {
				p.Sleep(100)
			}
		})
		ks[1].Go("panicker", func(p *Proc) {
			p.Sleep(250)
			explode(boom)
		})
		got, stack := recoverRun(run)
		checkPanic(t, fmt.Sprintf("workers=%d: Run", workers), got, stack, boom)
		if ks[1].Now() != 250 {
			t.Fatalf("workers=%d: panicking kernel stopped at %v, want 250", workers, ks[1].Now())
		}
		shutdown()
		for _, k := range ks {
			if k.Procs() != 0 {
				t.Fatalf("workers=%d: %d procs after Shutdown", workers, k.Procs())
			}
		}
	}
	waitGoroutines(t, start)
}

// TestShutdownReapsUnstartedAndWaiting: Shutdown kills a proc that never
// started and one blocked in Cond.WaitTimeout. The first body never runs,
// the second unwinds through its defers without returning from the wait,
// and Procs reads 0. A proc whose deferred cleanup blocks again is killed
// in that call too.
func TestShutdownReapsUnstartedAndWaiting(t *testing.T) {
	start := runtime.NumGoroutine()
	k := New()
	c := NewCond(k)
	var trace []string
	k.GoAt(Time(time.Second), "unstarted", func(p *Proc) { trace = append(trace, "unstarted ran") })
	k.Go("waiter", func(p *Proc) {
		defer func() { trace = append(trace, "waiter unwound") }()
		c.WaitTimeout(p, time.Hour)
		trace = append(trace, "waiter woke")
	})
	k.Go("cleaner", func(p *Proc) {
		defer func() {
			p.Sleep(time.Microsecond)
			trace = append(trace, "cleaner slept")
		}()
		p.Sleep(time.Hour)
	})
	k.RunFor(time.Millisecond)
	if k.Procs() != 3 {
		t.Fatalf("%d procs before Shutdown, want 3", k.Procs())
	}
	k.Shutdown()
	if s := fmt.Sprint(trace); s != "[waiter unwound]" || k.Procs() != 0 {
		t.Fatalf("after Shutdown: trace %s, %d procs; want [waiter unwound], 0", s, k.Procs())
	}
	waitGoroutines(t, start)
}

// TestProcAllocRegression pins both proc benchmarks at 0 allocs/op: once
// spawned and warm, handing the kernel between procs and the run's caller
// must not allocate.
func TestProcAllocRegression(t *testing.T) {
	for name, spawn := range map[string]func(*Kernel, int){
		"ProcSwitch":   sleeper,
		"ProcPingPong": pingPong,
	} {
		k := New()
		spawn(k, 1<<30)
		k.RunEvents(64) // start the procs, grow the queues
		if per := testing.AllocsPerRun(20, func() { k.RunEvents(256) }); per != 0 {
			t.Errorf("%s: %.2f allocs per run of 256 events, want 0", name, per)
		}
		k.Shutdown()
	}
}
