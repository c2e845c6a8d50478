package sim

import (
	"testing"
	"time"
)

// barrierChain schedules a self-rescheduling event chain on k: one event at
// each of start, start+step, ... (steps of them), all at times shared with
// the other kernels' chains so every window has several active kernels and
// takes the barrier path. Each firing appends the kernel's clock to *trace
// (per-kernel slices only — a kernel's events run on one goroutine at a
// time, and window barriers publish the writes).
func barrierChain(k *Kernel, start, step Time, steps int, trace *[]Time) {
	var tick func()
	left := steps
	tick = func() {
		*trace = append(*trace, k.Now())
		left--
		if left > 0 {
			k.Schedule(k.Now()+step, tick)
		}
	}
	k.Schedule(start, tick)
}

// TestEngineBarrierParkWakeup hammers the helper park/broadcast handshake:
// with the spin budget forced to 0 every helper parks on the condvar at
// every window, so each of the thousands of barrier windows crosses the racy
// region between the coordinator's generation bump and the helper's
// sleepers/gen re-check. The historical lost-wakeup bug (sleepers raised
// after the under-lock gen re-check) parked a helper forever under exactly
// this interleaving; waitHelpers then turns the hang into a diagnosed panic.
func TestEngineBarrierParkWakeup(t *testing.T) {
	const kernels, steps = 4, 2000
	e := NewEngine(100*time.Nanosecond, kernels)
	e.spin = 0
	traces := make([][]Time, kernels)
	for i := 0; i < kernels; i++ {
		barrierChain(e.NewKernel(), 0, 1000, steps, &traces[i])
	}
	e.Run()
	if got := e.Fired(); got != kernels*steps {
		t.Fatalf("fired = %d, want %d", got, kernels*steps)
	}
	if e.Barriers() == 0 {
		t.Fatal("workload never took the barrier path; test exercises nothing")
	}
	for i, tr := range traces {
		if len(tr) != steps {
			t.Fatalf("kernel %d ran %d chain events, want %d", i, len(tr), steps)
		}
	}
	e.Shutdown()
}

// TestEngineRestartAfterShutdown pins pool restart: Shutdown used to leave
// barQuit set, so a later Run spawned helpers that exited before ever
// reporting barDone and the first multi-kernel window spun forever.
// startWorkers now resets the barrier state, so a shut-down engine can be
// rescheduled and run again.
func TestEngineRestartAfterShutdown(t *testing.T) {
	const kernels, steps = 4, 50
	e := NewEngine(100*time.Nanosecond, kernels)
	traces := make([][]Time, kernels)
	for i := 0; i < kernels; i++ {
		barrierChain(e.NewKernel(), 0, 1000, steps, &traces[i])
	}
	e.Run()
	if got := e.Fired(); got != kernels*steps {
		t.Fatalf("first run fired = %d, want %d", got, kernels*steps)
	}
	e.Shutdown()

	// Reschedule aligned chains on the surviving kernels and run again; the
	// pool must come back up with fresh barrier state. Kernel clocks kept
	// their final values, so restart activity begins past them.
	start := Time(0)
	for _, k := range e.Kernels() {
		if k.Now() > start {
			start = k.Now()
		}
	}
	start += 1000
	for i, k := range e.Kernels() {
		barrierChain(k, start, 1000, steps, &traces[i])
	}
	before := e.Barriers()
	e.Run()
	if got := e.Fired(); got != 2*kernels*steps {
		t.Fatalf("after restart fired = %d, want %d", got, 2*kernels*steps)
	}
	if e.Barriers() == before {
		t.Fatal("restarted run never took the barrier path; restart untested")
	}
	e.Shutdown()
}

// TestEngineLateKernelJoinsShards pins resharding: a kernel created after
// the worker pool came up used to belong to no shard, so multi-kernel
// windows never executed it — the run limped along on the solo-kernel path
// with inflated window counts that diverged from the serial engine. The
// late kernel must now fold into the shards and the run must stay
// byte-identical across worker counts (same windows, same per-kernel event
// times).
func TestEngineLateKernelJoinsShards(t *testing.T) {
	type result struct {
		windows uint64
		fired   uint64
		traces  [][]Time
	}
	run := func(workers int) result {
		const warm = 5
		e := NewEngine(100*time.Nanosecond, workers)
		traces := make([][]Time, 3)
		barrierChain(e.NewKernel(), 0, 1000, warm+20, &traces[0])
		barrierChain(e.NewKernel(), 0, 1000, warm+20, &traces[1])
		// Bring the pool up on a few multi-kernel windows first.
		if n := e.RunWindows(warm); n != warm {
			t.Fatalf("workers=%d: warmup ran %d windows, want %d", workers, n, warm)
		}
		// Late join, at a window barrier: its chain shares every remaining
		// window with the founding kernels, so it only makes progress if the
		// barrier path actually dispatches it.
		barrierChain(e.NewKernel(), Time(warm)*1000, 1000, 20, &traces[2])
		e.Run()
		e.Shutdown()
		return result{e.Windows(), e.Fired(), traces}
	}

	want := run(1)
	if n := len(want.traces[2]); n != 20 {
		t.Fatalf("serial: late kernel ran %d events, want 20", n)
	}
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if got.windows != want.windows || got.fired != want.fired {
			t.Fatalf("workers=%d: windows/fired = %d/%d, serial = %d/%d",
				workers, got.windows, got.fired, want.windows, want.fired)
		}
		for ki := range want.traces {
			if len(got.traces[ki]) != len(want.traces[ki]) {
				t.Fatalf("workers=%d: kernel %d ran %d events, serial ran %d",
					workers, ki, len(got.traces[ki]), len(want.traces[ki]))
			}
			for i := range want.traces[ki] {
				if got.traces[ki][i] != want.traces[ki][i] {
					t.Fatalf("workers=%d: kernel %d event %d at %v, serial at %v",
						workers, ki, i, got.traces[ki][i], want.traces[ki][i])
				}
			}
		}
	}
}
