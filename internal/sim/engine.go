package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Engine runs several Kernels as one deterministic simulation using
// conservative time windows (classic conservative PDES with a global window
// barrier instead of per-link null messages).
//
// The deployment is partitioned: every simulated component lives on exactly
// one kernel, and all interaction between partitions goes through Post, which
// must target a timestamp at least one lookahead past the sender's clock. The
// lookahead is the minimum cross-partition latency the model guarantees — for
// the RDMA fabric, the wire propagation delay, since no message can arrive
// sooner than it.
//
// The window loop is:
//
//  1. deliver all cross-partition messages emitted by the previous window
//     (merged in canonical (time, source-partition, emission-index) order,
//     so destination sequence numbers — the tie-break — are reproducible),
//  2. find the earliest pending event across all kernels; call it T,
//  3. run every kernel with work up to the window edge T+lookahead-1,
//  4. barrier, go to 1.
//
// Step 3 is safe because a message sent at time s >= T arrives at
// s+lookahead > T+lookahead-1: nothing a peer does inside the window can
// affect this window. Step 2's canonical merge makes the result independent
// of worker count and interleaving: kernels are deterministic in isolation,
// and everything that crosses between them is ordered by data, not by
// execution order. That is the engine's contract — byte-identical output at
// a fixed seed for any number of workers, including one.
//
// Coordination tax. Steady-state windows avoid almost all of the loop above:
// a window with one active kernel runs on the coordinator with no barrier,
// idle kernels are never dispatched, and multi-kernel windows use a
// generation barrier (two atomics per worker per window) over statically
// sharded kernels instead of channel sends. None of this changes what a
// window *is*: the window counter, the delivery order, and the state at
// every window boundary are the same at any worker count.
type Engine struct {
	kernels   []*Kernel
	lookahead Time
	workers   int

	// deadline is the inclusive edge of the window being executed; workers
	// read it (written by the coordinator strictly before the barrier
	// release, so the generation bump publishes it).
	deadline Time
	// outboxes holds cross-partition messages: one slot per source kernel,
	// appended only by events running on that kernel.
	outboxes [][]crossMsg

	// Barrier worker pool (lazily started, torn down by Shutdown, restarted
	// clean by the next startWorkers). The coordinator owns shard 0; helper i
	// owns shards[i]. A window is opened by bumping barGen (helpers spin
	// briefly, then park on barCond) and closed when barDone reaches helpers.
	shards    [][]*Kernel
	sharded   int // len(kernels) when shards were last built
	helpers   int
	barGen    atomic.Uint64
	barDone   atomic.Int64
	barQuit   atomic.Bool
	sleepers  atomic.Int64
	barMu     sync.Mutex
	barCond   *sync.Cond
	hwg       sync.WaitGroup
	workersUp bool

	// serialized is a nesting counter: while positive, windows execute as an
	// exact global event merge on the stepping goroutine (see stepMerged).
	// Crash/recovery spans hold a token per crashed replica so recovery
	// procs see one global event order. Written only by the stepping
	// goroutine (driver context at a window barrier, or an event inside a
	// serialized window).
	serialized int

	// spin is how many Gosched rounds a helper waits on the generation
	// before parking on the condvar (barSpinRounds; a test zeroes it
	// before the first window to force the park path).
	spin int

	// hooks run at every window barrier's flush, in coordinator context with
	// all kernels quiesced (see AddFlushHook).
	hooks []func()

	crossed uint64 // cross-partition messages delivered
	windows uint64 // windows executed; the partitioned crash coordinate

	// Coordination counters (deterministic at any worker count).
	idleSkips uint64 // kernel dispatches skipped because the kernel was idle
	barriers  uint64 // windows that needed more than one kernel

	// flush scratch for the k-way outbox merge, reused across windows.
	mergeSrcs  []int
	mergeHeads []int

	// coord runs the coordinator's kernels of a multi-kernel window as one
	// chain: all of them in runSerial, shard 0 with helpers. Each helper
	// owns the chain of its shard.
	coord chain
}

type crossMsg struct {
	dst *Kernel
	at  Time
	fn  func()
}

// barSpinRounds seeds Engine.spin: how many Gosched rounds a helper spins on
// the generation before parking on the condvar.
const barSpinRounds = 256

// barStallTimeout bounds the coordinator's wait for helpers to finish a
// window. Helpers cannot legally disappear mid-window, so hitting it means a
// lost helper (or a barrier-protocol bug); the coordinator panics with the
// barrier state instead of spinning silently forever.
const barStallTimeout = 30 * time.Second

// NewEngine returns an engine with the given lookahead (the minimum
// cross-partition delay any Post will honor) and worker goroutine count.
// workers <= 1 runs the windows on the calling goroutine; the output is
// byte-identical at any setting. Kernels are added with NewKernel.
func NewEngine(lookahead time.Duration, workers int) *Engine {
	if lookahead <= 0 {
		panic("sim: engine lookahead must be positive")
	}
	if workers < 1 {
		workers = 1
	}
	return &Engine{lookahead: Time(lookahead), workers: workers, deadline: -1, spin: barSpinRounds, coord: newChain()}
}

// NewKernel adds a partition to the engine and returns its kernel. Create
// partitions during setup or at a window barrier (driver context, engine
// paused) — never from inside an event. Kernels added after the worker pool
// came up are folded into the shards at the next multi-kernel window.
func (e *Engine) NewKernel() *Kernel {
	k := New()
	k.eng = e
	k.engID = len(e.kernels)
	e.kernels = append(e.kernels, k)
	e.outboxes = append(e.outboxes, nil)
	return k
}

// Kernels returns the partition kernels in creation order.
func (e *Engine) Kernels() []*Kernel { return e.kernels }

// Lookahead returns the engine's conservative lookahead.
func (e *Engine) Lookahead() time.Duration { return time.Duration(e.lookahead) }

// Fired reports the total events executed across all partitions.
func (e *Engine) Fired() uint64 {
	var n uint64
	for _, k := range e.kernels {
		n += k.Fired()
	}
	return n
}

// Crossed reports how many cross-partition messages have been delivered.
func (e *Engine) Crossed() uint64 { return e.crossed }

// Windows reports how many conservative windows have executed. Every window
// boundary is a global barrier — no kernel is mid-event, every delivered
// cross message is in a destination queue — so the window index is a stable,
// enumerable coordinate for external intervention: with identical inputs the
// i-th window covers the same events in every run, at any worker count. The
// partitioned crash sweep crashes "at window i" the way the serial sweep
// crashes "after event i".
func (e *Engine) Windows() uint64 { return e.windows }

// IdleSkips reports how many per-window kernel dispatches were skipped
// because the kernel had no event inside the window.
func (e *Engine) IdleSkips() uint64 { return e.idleSkips }

// Barriers reports how many windows had more than one active kernel — the
// windows that actually pay for multi-worker coordination.
func (e *Engine) Barriers() uint64 { return e.barriers }

// AddFlushHook registers fn to run at every window barrier, immediately
// before buffered cross messages are delivered. Hooks run in coordinator
// context: exactly one goroutine, all kernels quiesced, so they may touch
// any partition's state.
// The fabric uses this to recycle cross-transfer slabs whose envelopes were
// released by destination partitions. Register during setup, before Run.
func (e *Engine) AddFlushHook(fn func()) { e.hooks = append(e.hooks, fn) }

// Serialize forces subsequent windows to run as an exact global event merge
// on the stepping goroutine (see stepMerged) — the same total order a single
// serial kernel would produce, independent of the worker count — until a
// matching Unserialize. Calls nest. Crash/recovery spans use it: with a
// replica down, recovery procs reach across kernels in patterns the
// conservative lookahead cannot order (reestablish, log replay, quiesce
// barriers), and a serialized window gives them that global order, while
// Post delivers cross messages directly instead of deferring them to the
// next barrier. Call only from a window barrier (driver context) or from an
// event already inside a serialized window.
func (e *Engine) Serialize() {
	e.serialized++
	e.syncClocks()
}

// syncClocks raises every kernel's clock to the engine-wide maximum. Legal
// whenever a global order holds (a window barrier, or mid-event in a merged
// window): every pending event is then at or past the maximum clock, so no
// kernel's queue can go backwards. Serialized spans need it because driver
// barrier actions and recovery procs schedule onto kernels whose clocks lag
// the barrier (a crashed replica's clock froze at its crash) — without the
// sync those events would land in other kernels' past. stepMerged re-syncs
// at every serialized barrier so the invariant holds for the span's length.
func (e *Engine) syncClocks() {
	var max Time
	for _, k := range e.kernels {
		if k.now > max {
			max = k.now
		}
	}
	for _, k := range e.kernels {
		if k.now < max {
			k.now = max
		}
	}
}

// Unserialize releases one Serialize token.
func (e *Engine) Unserialize() {
	if e.serialized <= 0 {
		panic("sim: Unserialize without matching Serialize")
	}
	e.serialized--
}

// Serialized reports whether the engine is inside a serialized span.
func (e *Engine) Serialized() bool { return e.serialized > 0 }

// Post schedules fn at time `at` on the dst partition, from an event
// currently executing on src (or from setup code before Run). The timestamp
// must be beyond the current window edge; posts at src.Now() plus at least
// the lookahead always are. Messages are buffered per source and delivered
// at the next window barrier in canonical order.
//
// Inside a serialized span the window edge does not bind: kernels step
// sequentially on one goroutine, so a global event order exists without the
// lookahead discipline, and the message is scheduled onto dst directly
// (clamped to dst's clock — recovery procs reach kernels whose clocks lag
// the window, exactly the interactions Serialize exists to legalize). The
// branch depends only on the serialized state, never the worker count, so
// runs stay byte-identical across workers.
func (e *Engine) Post(src, dst *Kernel, at Time, fn func()) {
	if src == dst {
		src.Schedule(at, fn)
		return
	}
	if src.eng != e || dst.eng != e {
		panic("sim: Post across kernels that do not share this engine")
	}
	if e.serialized > 0 {
		if at < dst.now {
			at = dst.now
		}
		dst.Schedule(at, fn)
		return
	}
	if at <= e.deadline {
		panic(fmt.Sprintf("sim: cross-partition post at %v inside the current window (edge %v): lookahead violated", at, e.deadline))
	}
	e.outboxes[src.engID] = append(e.outboxes[src.engID], crossMsg{dst: dst, at: at, fn: fn})
}

// PostAfterLookahead schedules fn on dst exactly one lookahead past src's
// clock — the earliest always-legal cross-partition timestamp.
func (e *Engine) PostAfterLookahead(src, dst *Kernel, fn func()) {
	e.Post(src, dst, src.Now()+e.lookahead, fn)
}

// startWorkers lazily brings up the barrier worker pool: helpers = workers-1
// goroutines (capped at one per kernel), each owning a round-robin shard of
// the kernels; the coordinator runs shard 0 itself. The pool lives until
// Shutdown so that window-stepped drivers (RunWindows callers) do not respawn
// goroutines per call; a pool torn down by Shutdown restarts clean here.
// Called only at a window barrier (no helpers mid-window), so it may also
// rebuild the shards when kernels were added since the pool came up.
func (e *Engine) startWorkers() {
	if e.workersUp {
		if e.helpers > 0 && e.sharded != len(e.kernels) {
			e.reshard()
		}
		return
	}
	w := e.workers
	if w > len(e.kernels) {
		w = len(e.kernels)
	}
	e.helpers = w - 1
	if e.barCond == nil {
		e.barCond = sync.NewCond(&e.barMu)
	}
	if e.helpers > 0 {
		// Fresh pools (including post-Shutdown restarts) must not inherit the
		// previous pool's barrier state: helpers start at seen=0, so a stale
		// barGen would open a phantom window, and a stale barQuit would make
		// them exit before ever reporting barDone.
		e.barQuit.Store(false)
		e.barGen.Store(0)
		e.barDone.Store(0)
		e.sleepers.Store(0)
		e.reshard()
		for i := 1; i <= e.helpers; i++ {
			e.hwg.Add(1)
			go e.helperLoop(i)
		}
	}
	e.workersUp = true
}

// reshard (re)builds the static round-robin kernel shards for the current
// pool width. Coordinator-only, at a barrier: helpers read e.shards only
// after observing a barGen bump, which publishes the new slices. The helper
// count never changes while the pool is up — kernels added late are folded
// into the existing shards, so they execute in every multi-kernel window
// just like founding kernels (they may just not add parallelism).
func (e *Engine) reshard() {
	w := e.helpers + 1
	e.shards = make([][]*Kernel, w)
	for i, k := range e.kernels {
		e.shards[i%w] = append(e.shards[i%w], k)
	}
	e.sharded = len(e.kernels)
}

// helperLoop is one barrier worker: wait for the coordinator to open a
// window (a barGen bump), run this shard's kernels that have work inside it
// as one chain, report done. The wait yields for a bounded number of rounds
// — windows are short — then parks on the condvar so long solo or
// serialized stretches do not burn a core. The generation bump publishes
// e.deadline and everything the coordinator wrote before it; barDone
// publishes this shard's kernel state back.
func (e *Engine) helperLoop(shard int) {
	defer e.hwg.Done()
	c := newChain()
	seen := uint64(0)
	for {
		spins := 0
		for e.barGen.Load() == seen {
			if e.barQuit.Load() {
				return
			}
			spins++
			if spins < e.spin {
				runtime.Gosched()
				continue
			}
			// Park. sleepers must be raised *before* the gen re-check: both
			// sides use sequentially consistent atomics, so if the re-check
			// still sees the old generation, the coordinator's barGen bump is
			// later in the total order and its sleepers load (later still)
			// observes the increment and takes the broadcast path. Raising
			// sleepers after the re-check loses that wakeup — the coordinator
			// can bump, see sleepers==0, skip the broadcast, and this helper
			// parks forever. The broadcast itself runs under barMu, so it
			// cannot fire in the gap between the re-check and Wait.
			e.barMu.Lock()
			e.sleepers.Add(1)
			for e.barGen.Load() == seen && !e.barQuit.Load() {
				e.barCond.Wait()
			}
			e.sleepers.Add(-1)
			e.barMu.Unlock()
		}
		seen = e.barGen.Load()
		if e.barQuit.Load() {
			return
		}
		c.runWindow(e.shards[shard], e.deadline)
		e.barDone.Add(1)
	}
}

// runSerial executes the current window's active kernels in creation order
// as one chain from the calling goroutine — the workers<=1 path, and the
// fallback when the pool would be empty.
func (e *Engine) runSerial() { e.coord.runWindow(e.kernels, e.deadline) }

// stepWindows executes up to budget conservative windows and reports how
// many ran (fewer only when the simulation went quiescent). Each window:
// deliver the previous window's cross messages, open the window at the
// globally earliest event (idle stretches are jumped in one step, exactly
// like the serial kernel), run every kernel with work up to the inclusive
// edge, barrier. A window with one active kernel runs it on the
// coordinator; windows with several active kernels release the worker
// barrier.
func (e *Engine) stepWindows(budget int) int {
	ran := 0
	for ran < budget {
		e.flush()
		next := Time(math.MaxInt64)
		for _, k := range e.kernels {
			if t, ok := k.NextEventAt(); ok && t < next {
				next = t
			}
		}
		if next == math.MaxInt64 {
			return ran
		}
		e.deadline = next + e.lookahead - 1
		e.windows++
		ran++
		if e.serialized > 0 {
			e.stepMerged()
			continue
		}
		// Classify the window: count kernels with work inside it and find
		// the solo active kernel if there is exactly one.
		actives := 0
		var solo *Kernel
		for _, k := range e.kernels {
			if t, ok := k.NextEventAt(); ok && t <= e.deadline {
				actives++
				solo = k
			}
		}
		e.idleSkips += uint64(len(e.kernels) - actives)
		if actives == 1 {
			// Solo window: no other kernel can observe anything before the
			// next barrier, so run it on the coordinator.
			solo.RunUntil(e.deadline)
			continue
		}
		e.barriers++
		if e.workers <= 1 {
			e.runSerial()
			continue
		}
		e.startWorkers()
		if e.helpers == 0 {
			e.runSerial()
			continue
		}
		e.barDone.Store(0)
		e.barGen.Add(1)
		// The sleepers check elides the mutex when every helper is spinning.
		// It is race-free against helpers parking: a helper raises sleepers
		// before its under-lock gen re-check, so a helper that parks on the
		// old generation is visible here (see helperLoop).
		if e.sleepers.Load() > 0 {
			e.barMu.Lock()
			e.barCond.Broadcast()
			e.barMu.Unlock()
		}
		e.coord.runWindow(e.shards[0], e.deadline)
		e.waitHelpers()
	}
	return ran
}

// waitHelpers spins until every helper reports the open window done. The
// wait is normally a few iterations — windows are short and helpers are
// already running — so it stays a spin, but it is bounded: if helpers stop
// reporting (a lost goroutine, a torn-down pool, a protocol bug) it panics
// with the barrier state after barStallTimeout rather than hanging the
// simulation silently.
func (e *Engine) waitHelpers() {
	var slowSince time.Time
	for spins := 0; e.barDone.Load() != int64(e.helpers); spins++ {
		if spins < 64 {
			continue
		}
		runtime.Gosched()
		if spins&1023 != 0 {
			continue
		}
		if slowSince.IsZero() {
			slowSince = time.Now()
		} else if time.Since(slowSince) > barStallTimeout {
			panic(fmt.Sprintf(
				"sim: window barrier stalled: %d/%d helpers reported (gen %d, sleepers %d, quit %v, window %d)",
				e.barDone.Load(), e.helpers, e.barGen.Load(), e.sleepers.Load(), e.barQuit.Load(), e.windows))
		}
	}
}

// stepMerged runs one serialized window as an exact global event merge:
// repeatedly execute the globally earliest head event (ties broken by kernel
// creation order) until nothing at or before the window edge remains. No
// kernel ever runs ahead of the merge clock, so an event touching another
// kernel directly — or posting to it — always lands in that kernel's future,
// which is what makes recovery choreography legal inside a serialized span.
func (e *Engine) stepMerged() {
	for {
		var kmin *Kernel
		var tmin Time
		for _, k := range e.kernels {
			if t, ok := k.NextEventAt(); ok && t <= e.deadline && (kmin == nil || t < tmin) {
				tmin, kmin = t, k
			}
		}
		if kmin == nil {
			e.syncClocks()
			return
		}
		kmin.runHead(e.deadline)
	}
}

// Run executes windows until every partition is quiescent (no pending events
// and no undelivered cross messages).
func (e *Engine) Run() {
	const chunk = 1 << 30
	for e.stepWindows(chunk) == chunk {
	}
}

// RunWindows executes at most n windows and reports how many ran (fewer only
// when the simulation went quiescent first). It pauses the world at an exact
// window barrier — no kernel mid-event, a global order over everything
// executed so far — which is where the partitioned crash sweep injects
// crashes; see Windows.
func (e *Engine) RunWindows(n int) int {
	return e.stepWindows(n)
}

// Shutdown tears the deployment down: stops the worker pool and reaps every
// kernel's parked procs and event pools. Back-to-back deployments in one
// process previously pinned ~100 MB each, because every proc goroutine left
// blocked at its resume channel (plus the event free lists keeping payload
// buffers reachable) survived the deployment. The engine must be paused at a
// barrier (not running). A shut-down engine may be rescheduled and run
// again: the next Run/RunWindows restarts the worker pool with fresh barrier
// state (kernel queues and free lists start empty, as after construction).
func (e *Engine) Shutdown() {
	if e.workersUp {
		e.barQuit.Store(true)
		e.barGen.Add(1)
		e.barMu.Lock()
		e.barCond.Broadcast()
		e.barMu.Unlock()
		e.hwg.Wait()
		e.workersUp = false
	}
	for _, k := range e.kernels {
		k.Shutdown()
	}
	for i := range e.outboxes {
		e.outboxes[i] = nil
	}
	e.shards, e.sharded = nil, 0
	e.mergeSrcs, e.mergeHeads = nil, nil
	e.hooks = nil
}

// runHooks fires the barrier flush hooks (coordinator context, kernels
// quiesced).
func (e *Engine) runHooks() {
	for _, h := range e.hooks {
		h()
	}
}

// deliverBox delivers one source's buffered messages in canonical order: the
// per-source box stable-sorted by timestamp preserves emission order within
// equal times, which for a single source is exactly the global (time,
// source, emission) order. Entries are zeroed after delivery so the box —
// scratch that persists across windows — never retains delivered closures or
// their captured transfer buffers.
func (e *Engine) deliverBox(src int) {
	box := e.outboxes[src]
	sortCrossStable(box)
	for i := range box {
		cm := &box[i]
		cm.dst.Schedule(cm.at, cm.fn)
		*cm = crossMsg{}
	}
	e.crossed += uint64(len(box))
	e.outboxes[src] = box[:0]
}

// flush delivers buffered cross messages into their destination kernels in
// canonical order: ascending timestamp, ties by (source partition, emission
// index). Destination Schedule assigns the tie-breaking sequence numbers in
// this order, so the resulting execution order is a pure function of the
// messages' data — independent of how many workers produced them. Each
// source box is nearly sorted already (FIFO egress per endpoint), so the
// boxes are insertion-sorted in place and k-way merged with ties going to
// the lowest source index — the same total order a global stable sort of the
// concatenation produces, without a shared scratch slice.
func (e *Engine) flush() {
	e.runHooks()
	srcs := e.mergeSrcs[:0]
	total := 0
	for i := range e.outboxes {
		if n := len(e.outboxes[i]); n > 0 {
			srcs = append(srcs, i)
			total += n
		}
	}
	e.mergeSrcs = srcs
	if total == 0 {
		return
	}
	if len(srcs) == 1 {
		e.deliverBox(srcs[0])
		return
	}
	heads := e.mergeHeads[:0]
	for _, s := range srcs {
		sortCrossStable(e.outboxes[s])
		heads = append(heads, 0)
	}
	e.mergeHeads = heads
	for n := 0; n < total; n++ {
		best := -1
		var bt Time
		for si, s := range srcs {
			h := heads[si]
			if h >= len(e.outboxes[s]) {
				continue
			}
			// Strict less keeps ties on the earliest source index, which the
			// ascending srcs scan visits first.
			if t := e.outboxes[s][h].at; best < 0 || t < bt {
				best, bt = si, t
			}
		}
		cm := &e.outboxes[srcs[best]][heads[best]]
		heads[best]++
		cm.dst.Schedule(cm.at, cm.fn)
		*cm = crossMsg{}
	}
	for _, s := range srcs {
		e.outboxes[s] = e.outboxes[s][:0]
	}
	e.crossed += uint64(total)
}

// sortCrossStable is a stable insertion/merge sort by timestamp. Cross
// batches per window are small (bounded by messages in flight), and each
// box is already sorted per endpoint, so insertion sort with a binary
// search beats the generic sort for the common sizes.
func sortCrossStable(m []crossMsg) {
	for i := 1; i < len(m); i++ {
		if m[i].at >= m[i-1].at {
			continue
		}
		// Binary search the insertion point in the sorted prefix; equal
		// timestamps insert after, preserving emission order (stability).
		lo, hi := 0, i
		for lo < hi {
			mid := (lo + hi) / 2
			if m[mid].at <= m[i].at {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		cm := m[i]
		copy(m[lo+1:i+1], m[lo:i])
		m[lo] = cm
	}
}
