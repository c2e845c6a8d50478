package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// pushSchedule is one fixed-seed push schedule for the consumer-equivalence
// test: item i is pushed at at[i] (non-decreasing, with bursts at one
// instant and gaps that leave the queue empty) and costs hold[i] to handle
// (some zero, some negative to exercise the clamp).
type pushSchedule struct {
	at   []Time
	hold []time.Duration
}

func newPushSchedule(seed uint64, n int) pushSchedule {
	r := NewRand(seed)
	var s pushSchedule
	t := Time(0)
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0: // burst: same instant as the previous push
		case 1: // long gap: the consumer drains and waits on an empty queue
			t += Time(5000 + r.Intn(5000))
		default: // short gap: pushes land while the consumer sleeps
			t += Time(r.Intn(400))
		}
		s.at = append(s.at, t)
		var d time.Duration
		switch r.Intn(5) {
		case 0:
			d = 0
		case 1:
			d = -time.Duration(r.Intn(50)) // clamps to 0
		default:
			d = time.Duration(50 + r.Intn(600))
		}
		s.hold = append(s.hold, d)
	}
	return s
}

// consumerRun feeds the schedule to a fresh kernel whose consumer is a proc
// (Pop, Sleep) or a callback loop (PopFunc, AfterFunc), next to a witness
// proc that samples the queue on a fixed grid. It returns the per-item
// handling times, the witness trace and Fired().
func consumerRun(s pushSchedule, callback bool) (handled []Time, witness []string, fired uint64) {
	k := New()
	ch := NewChan[int](k)
	for i, at := range s.at {
		i := i
		k.Schedule(at, func() { ch.Push(i) })
	}
	if callback {
		var next func()
		var handle func(int)
		handle = func(i int) {
			handled = append(handled, k.Now())
			k.AfterFunc(s.hold[i], next)
		}
		next = func() {
			if len(handled) < len(s.at) {
				ch.PopFunc(handle)
			}
		}
		k.Schedule(k.Now(), next)
	} else {
		k.Go("consumer", func(p *Proc) {
			for len(handled) < len(s.at) {
				i := ch.Pop(p)
				handled = append(handled, k.Now())
				p.Sleep(s.hold[i])
			}
		})
	}
	k.Go("witness", func(p *Proc) {
		for k.Now() <= s.at[len(s.at)-1] {
			witness = append(witness, fmt.Sprintf("%d:%d/%d", k.Now(), len(handled), ch.Len()))
			p.Sleep(97)
		}
	})
	k.Run()
	return handled, witness, k.Fired()
}

// TestPopFuncMatchesProcConsumer: a callback consumer (PopFunc, then
// AfterFunc for the handling delay) must fire exactly the events a proc
// consumer (Pop, then Sleep) fires, in the same order: the same handling
// instant for every item, the same Fired(), and the same view for a proc
// interleaved with both.
func TestPopFuncMatchesProcConsumer(t *testing.T) {
	s := newPushSchedule(42, 400)
	bursts := 0
	for i := 1; i < len(s.at); i++ {
		if s.at[i] == s.at[i-1] {
			bursts++
		}
	}
	if bursts < 50 {
		t.Fatalf("schedule has %d same-instant pushes, want a burst-heavy schedule", bursts)
	}
	ph, pw, pf := consumerRun(s, false)
	ch, cw, cf := consumerRun(s, true)
	if len(ph) != len(s.at) {
		t.Fatalf("proc consumer handled %d of %d items", len(ph), len(s.at))
	}
	if fmt.Sprint(ph) != fmt.Sprint(ch) {
		t.Fatalf("handling times differ:\nproc     %v\ncallback %v", ph, ch)
	}
	if fmt.Sprint(pw) != fmt.Sprint(cw) {
		t.Fatalf("witness traces differ:\nproc     %v\ncallback %v", pw, cw)
	}
	if pf != cf {
		t.Fatalf("Fired: proc %d, callback %d", pf, cf)
	}
}

// TestCondMixedWaitersFIFO: a Cond holding proc and callback waiters wakes
// them in the order they queued, one per Signal and all at once on
// Broadcast.
func TestCondMixedWaitersFIFO(t *testing.T) {
	for _, broadcast := range []bool{false, true} {
		k := New()
		c := NewCond(k)
		var got []string
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("w%d", i)
			if i%2 == 0 {
				k.GoAt(Time(i), name, func(p *Proc) {
					c.Wait(p)
					got = append(got, fmt.Sprintf("%s@%d", name, k.Now()))
				})
			} else {
				k.Schedule(Time(i), func() {
					c.WaitFunc(func() { got = append(got, fmt.Sprintf("%s@%d", name, k.Now())) })
				})
			}
		}
		if broadcast {
			k.Schedule(100, c.Broadcast)
		} else {
			for i := 0; i < 6; i++ {
				k.Schedule(Time(100+10*i), c.Signal)
			}
		}
		k.Run()
		want := "w0@100 w1@100 w2@100 w3@100 w4@100 w5@100"
		if !broadcast {
			want = "w0@100 w1@110 w2@120 w3@130 w4@140 w5@150"
		}
		if s := strings.Join(got, " "); s != want {
			t.Fatalf("broadcast=%v: wake order %s, want %s", broadcast, s, want)
		}
	}
}

// TestFutureWaitFunc: a callback waiting on a pending future runs at the
// completion instant, in the slot a waiting proc's wake takes; on a
// resolved future it runs at once, inside the caller.
func TestFutureWaitFunc(t *testing.T) {
	k := New()
	f := NewFuture[int](k)
	var got []string
	k.Go("proc", func(p *Proc) {
		got = append(got, fmt.Sprintf("proc %d@%d", f.Wait(p), k.Now()))
	})
	k.Schedule(1, func() {
		f.WaitFunc(func(v int) { got = append(got, fmt.Sprintf("before %d@%d", v, k.Now())) })
	})
	k.Schedule(5, func() { f.Complete(7) })
	k.Schedule(9, func() {
		f.WaitFunc(func(v int) { got = append(got, fmt.Sprintf("after %d@%d", v, k.Now())) })
		got = append(got, "returned")
	})
	k.Run()
	want := "proc 7@5, before 7@5, after 7@9, returned"
	if s := strings.Join(got, ", "); s != want {
		t.Fatalf("got %s, want %s", s, want)
	}
}

// TestCallbackConsumerPanicReachesCaller: a callback consumer that panics
// surfaces at Run's caller with its own value and the stack it panicked on,
// whether the loop ran on the caller's goroutine or inside the producer
// proc that woke it.
func TestCallbackConsumerPanicReachesCaller(t *testing.T) {
	for _, fromProc := range []bool{false, true} {
		k := New()
		ch := NewChan[int](k)
		boom := fmt.Errorf("truncated item")
		ch.PopFunc(func(int) { explode(boom) })
		if fromProc {
			k.Go("producer", func(p *Proc) {
				ch.Push(1)
				p.Sleep(time.Microsecond)
				t.Error("producer resumed past the panic")
			})
		} else {
			k.Schedule(3, func() { ch.Push(1) })
		}
		got, stack := recoverRun(k.Run)
		checkPanic(t, fmt.Sprintf("fromProc=%v: Run", fromProc), got, stack, boom)
		k.Shutdown()
	}
}

// chainTicker spawns one proc per kernel that wakes every period for ticks
// ticks, logging each wake to its kernel's trace and posting one cross
// message a lookahead ahead to the next kernel, where a Chan consumer proc
// logs it. Every kernel therefore has proc work in every window.
func chainTicker(e *Engine, period Time, ticks int, traces [][]string) {
	ks := e.Kernels()
	inboxes := make([]*Chan[int], len(ks))
	for i, k := range ks {
		inboxes[i] = NewChan[int](k)
	}
	for i, k := range ks {
		i, k := i, k
		log := func(format string, args ...any) {
			traces[i] = append(traces[i], fmt.Sprintf("%d %s", k.Now(), fmt.Sprintf(format, args...)))
		}
		k.Go("ticker", func(p *Proc) {
			for n := 0; n < ticks; n++ {
				log("tick %d", n)
				dst := ks[(i+1)%len(ks)]
				in := inboxes[(i+1)%len(ks)]
				e.Post(k, dst, k.Now()+e.lookahead, func() { in.Push(n) })
				p.Sleep(time.Duration(period))
			}
		})
		k.Go("inbox", func(p *Proc) {
			for n := 0; n < ticks; n++ {
				log("got %d", inboxes[i].Pop(p))
			}
		})
	}
}

// TestEngineChainDeterminism: running a window's kernels as one chain leaves
// every kernel's trace and Fired() identical at workers 1, 2 and 3.
func TestEngineChainDeterminism(t *testing.T) {
	const kernels, ticks = 4, 40
	var want []string
	var wantFired []uint64
	for _, workers := range []int{1, 2, 3} {
		e := NewEngine(100, workers)
		for i := 0; i < kernels; i++ {
			e.NewKernel()
		}
		traces := make([][]string, kernels)
		chainTicker(e, 130, ticks, traces)
		e.Run()
		var got []string
		var fired []uint64
		for i, k := range e.Kernels() {
			got = append(got, strings.Join(traces[i], "|"))
			fired = append(fired, k.Fired())
		}
		if len(traces[0]) != 2*ticks {
			t.Fatalf("workers=%d: kernel 0 logged %d lines, want %d", workers, len(traces[0]), 2*ticks)
		}
		e.Shutdown()
		if want == nil {
			want, wantFired = got, fired
			continue
		}
		for i := range got {
			if got[i] != want[i] || fired[i] != wantFired[i] {
				t.Fatalf("workers=%d kernel %d: fired %d trace\n%s\nwant fired %d trace\n%s",
					workers, i, fired[i], got[i], wantFired[i], want[i])
			}
		}
	}
}

// TestEngineChainHandsBackOnce: in a window where every kernel's one proc
// wakes once, each kernel costs one switch to its proc and each chain one
// hand-back to its caller. At workers=1 the window is one chain, so three
// kernels cost four switches, not the six of a hand-back per kernel; with
// a worker per kernel each shard is a chain of one.
func TestEngineChainHandsBackOnce(t *testing.T) {
	const kernels, ticks = 3, 25
	for _, workers := range []int{1, 2, 3} {
		e := NewEngine(100, workers)
		for i := 0; i < kernels; i++ {
			k := e.NewKernel()
			k.Go("ticker", func(p *Proc) {
				for n := 1; n < ticks; n++ {
					p.Sleep(100)
				}
			})
		}
		e.Run()
		var switches uint64
		for _, k := range e.Kernels() {
			switches += k.Switches()
		}
		chains := uint64(min(workers, kernels))
		if want := e.Windows() * (kernels + chains); e.Windows() != ticks || switches != want {
			t.Fatalf("workers=%d: %d switches over %d windows, want %d over %d",
				workers, switches, e.Windows(), want, ticks)
		}
		e.Shutdown()
	}
}

// TestEngineChainPanic: a callback that panics in the second kernel of a
// chain, while a proc of the first kernel runs it, reaches the caller of
// Engine.Run with its own value and the stack it panicked on; Shutdown then
// leaves no goroutine behind.
func TestEngineChainPanic(t *testing.T) {
	start := runtime.NumGoroutine()
	e := NewEngine(100, 1)
	k0, k1, k2 := e.NewKernel(), e.NewKernel(), e.NewKernel()
	boom := fmt.Errorf("boom in k1")
	for _, k := range []*Kernel{k0, k1, k2} {
		k.Go("sleeper", func(p *Proc) {
			for {
				p.Sleep(100)
			}
		})
	}
	k1.Schedule(350, func() { explode(boom) })
	got, stack := recoverRun(e.Run)
	checkPanic(t, "Engine.Run", got, stack, boom)
	if k1.Now() != 350 || k0.Switches() == 0 {
		t.Fatalf("k1 stopped at %v (want 350), k0 switched %d times", k1.Now(), k0.Switches())
	}
	e.Shutdown()
	for _, k := range e.Kernels() {
		if k.Procs() != 0 {
			t.Fatalf("kernel %d kept %d procs after Shutdown", k.Partition(), k.Procs())
		}
	}
	waitGoroutines(t, start)
}

// TestEngineChainStopFromProc: a proc that stops its own kernel mid-chain
// ends only that kernel's run; the window's later kernels still run their
// part of it, and the stopped kernel carries on in the next window.
func TestEngineChainStopFromProc(t *testing.T) {
	e := NewEngine(100, 1)
	traces := make([][]string, 3)
	for i := 0; i < 3; i++ {
		i, k := i, e.NewKernel()
		k.Go("ticker", func(p *Proc) {
			for n := 0; n < 5; n++ {
				traces[i] = append(traces[i], fmt.Sprintf("%d", k.Now()))
				if i == 0 && n == 2 {
					k.Stop()
				}
				p.Sleep(100)
			}
		})
	}
	e.Run()
	want := "0 100 200 300 400"
	for i, tr := range traces {
		if s := strings.Join(tr, " "); s != want {
			t.Fatalf("kernel %d woke at %s, want %s", i, s, want)
		}
	}
}
