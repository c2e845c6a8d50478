package sim

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestEngineCrossDelivery checks the basics: cross posts arrive at their
// timestamp on the destination kernel, idle stretches are jumped in one
// window, and PostAfterLookahead lands exactly one lookahead out.
func TestEngineCrossDelivery(t *testing.T) {
	e := NewEngine(100*time.Nanosecond, 1)
	a, b := e.NewKernel(), e.NewKernel()
	var got []string
	a.Schedule(5, func() {
		e.Post(a, b, 105, func() { got = append(got, fmt.Sprintf("b@%d", b.Now())) })
		e.PostAfterLookahead(a, b, func() { got = append(got, fmt.Sprintf("b2@%d", b.Now())) })
	})
	// A long-idle event: the window loop must jump, not crawl.
	b.Schedule(1_000_000, func() { got = append(got, fmt.Sprintf("late@%d", b.Now())) })
	e.Run()
	// Both posts land at 105 (5+lookahead); same source, so emission order.
	want := "b@105,b2@105,late@1000000"
	if s := strings.Join(got, ","); s != want {
		t.Fatalf("delivery order = %s, want %s", s, want)
	}
	if e.Crossed() != 2 {
		t.Fatalf("crossed = %d, want 2", e.Crossed())
	}
	if a.Partition() != 0 || b.Partition() != 1 || a.Engine() != e {
		t.Fatalf("partition bookkeeping wrong: %d %d", a.Partition(), b.Partition())
	}
}

// TestEngineCanonicalMergeOrder pins the tie-break: messages with equal
// timestamps deliver in source-partition order, then emission order, no
// matter which source emitted first in wall-clock terms.
func TestEngineCanonicalMergeOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := NewEngine(100*time.Nanosecond, workers)
		a, b, c := e.NewKernel(), e.NewKernel(), e.NewKernel()
		var got []string
		rec := func(tag string) func() { return func() { got = append(got, tag) } }
		// Both sources target c at the same timestamp; b also emits twice.
		a.Schedule(0, func() { e.Post(a, c, 200, rec("a0")) })
		b.Schedule(0, func() {
			e.Post(b, c, 200, rec("b0"))
			e.Post(b, c, 200, rec("b1"))
			e.Post(b, c, 150, rec("early"))
		})
		e.Run()
		want := "early,a0,b0,b1"
		if s := strings.Join(got, ","); s != want {
			t.Fatalf("workers=%d: merge order = %s, want %s", workers, s, want)
		}
	}
}

// TestEnginePostInsideWindowPanics: a cross post below the lookahead bound is
// a model bug and must fail loudly, not silently reorder.
func TestEnginePostInsideWindowPanics(t *testing.T) {
	e := NewEngine(100*time.Nanosecond, 1)
	a, b := e.NewKernel(), e.NewKernel()
	a.Schedule(50, func() { e.Post(a, b, a.Now(), func() {}) })
	defer func() {
		if recover() == nil {
			t.Fatal("post inside the window did not panic")
		}
	}()
	e.Run()
}

// The partition-determinism property test needs a workload where the global
// event order is a pure function of the event data, because serial and
// engine runs cannot assign identical tie-break sequence numbers: a tie
// between a cross arrival and an unrelated event at the same instant may
// legitimately resolve differently. The workload therefore keeps independent
// events off shared timestamps with residue classes modulo M = n*(n+1):
//
//   - node i's self-scheduled activity happens at times ≡ i (mod M): procs
//     align once at start, every sleep and service time is a multiple of M;
//   - a cross send src→dst arrives at a time ≡ n + src*n + dst (mod M), a
//     class no other pair and no local activity uses, and each sender bumps
//     its per-destination arrival so two of its messages never share a slot;
//   - a consumer woken in a foreign class (by a cross push) realigns into
//     its own class before acting.
//
// The only same-timestamp events left are one event and its same-node causal
// descendants, which both modes execute in program order. mergedTrace
// asserts the invariant: no timestamp is shared by two nodes.
type traceNode struct {
	k      *Kernel
	id     int
	nodes  int
	rng    *Rand
	ch     *Chan[int]
	res    *Resource
	lastTo []Time // last arrival slot used per destination
	trace  []traceEntry
	sent   int
}

type traceEntry struct {
	at   Time
	node int
	s    string
}

// toResidue rounds t up to the next time congruent to r modulo m.
func toResidue(t Time, r, m int64) Time {
	d := ((r-int64(t))%m + m) % m
	return t + Time(d)
}

func (nd *traceNode) emit(format string, args ...any) {
	nd.trace = append(nd.trace, traceEntry{nd.k.Now(), nd.id, fmt.Sprintf(format, args...)})
}

// runTraceWorkload drives the nodes for `rounds` producer rounds. send
// schedules fn on the destination node at time `at`; the caller wires it to
// Kernel.Schedule (serial) or Engine.Post (parallel).
func runTraceWorkload(nodes []*traceNode, rounds int, lookahead Time, send func(src, dst *traceNode, at Time, fn func())) {
	n := len(nodes)
	m := int64(n) * int64(n+1)
	for _, nd := range nodes {
		nd := nd
		nd.lastTo = make([]Time, n)
		// Producer: local pushes plus random cross sends.
		nd.k.Go(fmt.Sprintf("prod-%d", nd.id), func(p *Proc) {
			p.Sleep(time.Duration(nd.id)) // align to this node's residue class
			for r := 0; r < rounds; r++ {
				p.Sleep(time.Duration(m * int64(1+nd.rng.Intn(40))))
				v := nd.id*1000 + r
				nd.emit("push %d", v)
				nd.ch.Push(v)
				if nd.rng.Intn(3) == 0 {
					dst := nodes[nd.rng.Intn(n)]
					if dst != nd {
						class := int64(n) + int64(nd.id)*int64(n) + int64(dst.id)
						at := toResidue(p.Now()+lookahead+Time(m*int64(nd.rng.Intn(8))), class, m)
						if at <= nd.lastTo[dst.id] {
							at = nd.lastTo[dst.id] + Time(m)
						}
						nd.lastTo[dst.id] = at
						nd.sent++
						nd.emit("send->%d %d", dst.id, v)
						send(nd, dst, at, func() {
							dst.emit("recv %d", v)
							dst.ch.Push(-v)
						})
					}
				}
			}
		})
		// Consumer: pops for as long as items arrive, with a resource in the
		// loop so contention timing is exercised too. It stays parked once
		// the workload drains; the caller shuts the kernels down.
		nd.k.Go(fmt.Sprintf("cons-%d", nd.id), func(p *Proc) {
			p.Sleep(time.Duration(nd.id)) // align to this node's residue class
			for {
				v := nd.ch.Pop(p)
				// A cross push wakes this proc in the sender pair's class;
				// realign into our own before acting.
				if d := int64(toResidue(p.Now(), int64(nd.id), m) - p.Now()); d > 0 {
					p.Sleep(time.Duration(d))
				}
				free := nd.res.Reserve(time.Duration(m * int64(1+nd.rng.Intn(5))))
				p.Sleep(free.Sub(p.Now()))
				nd.emit("pop %d", v)
			}
		})
	}
}

func mergedTrace(t *testing.T, nodes []*traceNode) string {
	t.Helper()
	var all []traceEntry
	for _, nd := range nodes {
		all = append(all, nd.trace...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	var b strings.Builder
	for i, e := range all {
		if i > 0 && e.at == all[i-1].at && e.node != all[i-1].node {
			t.Fatalf("residue invariant violated: nodes %d and %d both act at %d",
				all[i-1].node, e.node, e.at)
		}
		fmt.Fprintf(&b, "%d n%d %s\n", e.at, e.node, e.s)
	}
	return b.String()
}

func newTraceNodes(n int, seed uint64, mk func(i int) *Kernel) []*traceNode {
	nodes := make([]*traceNode, n)
	for i := range nodes {
		k := mk(i)
		nodes[i] = &traceNode{
			k: k, id: i, nodes: n,
			rng: NewRand(seed ^ uint64(i)*0x9e3779b97f4a7c15),
			ch:  NewChan[int](k), res: NewResource(k),
		}
	}
	return nodes
}

// TestEnginePartitionPropertyDeterminism is the partition-determinism
// property test: for node counts 1..5 and several seeds, the merged event
// trace of the chan/resource/rand workload is byte-identical between a
// single serial kernel hosting every node and an engine with one kernel per
// node, at 1, 2 and 4 workers.
func TestEnginePartitionPropertyDeterminism(t *testing.T) {
	const rounds = 30
	for nodes := 1; nodes <= 5; nodes++ {
		for _, seed := range []uint64{1, 7, 0xdecafbad} {
			lookahead := Time(nodes * (nodes + 1) * 16)

			serialK := New()
			serial := newTraceNodes(nodes, seed, func(int) *Kernel { return serialK })
			runTraceWorkload(serial, rounds, lookahead, func(src, dst *traceNode, at Time, fn func()) {
				src.k.Schedule(at, fn)
			})
			serialK.Run()
			serialK.Shutdown()
			want := mergedTrace(t, serial)

			for _, workers := range []int{1, 2, 4} {
				e := NewEngine(time.Duration(lookahead), workers)
				par := newTraceNodes(nodes, seed, func(int) *Kernel { return e.NewKernel() })
				runTraceWorkload(par, rounds, lookahead, func(src, dst *traceNode, at Time, fn func()) {
					e.Post(src.k, dst.k, at, fn)
				})
				e.Run()
				e.Shutdown()
				if got := mergedTrace(t, par); got != want {
					t.Fatalf("nodes=%d seed=%d workers=%d: trace diverged from serial\nserial:\n%s\nparallel:\n%s",
						nodes, seed, workers, want, got)
				}
			}
		}
	}
}

// TestEngineCrossStress hammers the window barrier from many kernels at
// once: every kernel's procs push through local chans, wait on conds via
// Pop, and fling cross posts at other partitions, with enough workers
// that windows genuinely overlap. Run under -race (the sim CI job does) this
// is the proof that parallel mode is race-free; the conservation check
// proves no message was lost or duplicated at a barrier.
func TestEngineCrossStress(t *testing.T) {
	const (
		kernels = 8
		workers = 4
		msgs    = 400
	)
	e := NewEngine(200*time.Nanosecond, workers)
	type part struct {
		k    *Kernel
		in   *Chan[int]
		rng  *Rand
		got  int
		sent int
	}
	parts := make([]*part, kernels)
	for i := range parts {
		k := e.NewKernel()
		parts[i] = &part{k: k, in: NewChan[int](k), rng: NewRand(uint64(i) + 99)}
	}
	for i, p := range parts {
		i, p := i, p
		p.k.Go("sender", func(pr *Proc) {
			for m := 0; m < msgs; m++ {
				pr.Sleep(time.Duration(1 + p.rng.Intn(300)))
				dst := parts[(i+1+p.rng.Intn(kernels-1))%kernels]
				p.sent++
				e.PostAfterLookahead(p.k, dst.k, func() { dst.in.Push(m) })
			}
		})
		p.k.Go("receiver", func(pr *Proc) {
			for {
				p.in.Pop(pr)
				p.got++
			}
		})
	}
	e.Run()
	e.Shutdown()
	sent, got := 0, 0
	for _, p := range parts {
		sent += p.sent
		got += p.got
	}
	if sent != kernels*msgs || got != sent {
		t.Fatalf("message conservation violated: sent %d (want %d), received %d", sent, kernels*msgs, got)
	}
	if e.Crossed() != uint64(sent) {
		t.Fatalf("engine crossed = %d, want %d", e.Crossed(), sent)
	}
}

// traceRun executes the property-test workload on a fresh engine and returns
// the merged trace plus the engine (for counter inspection).
func traceRun(t *testing.T, nodes int, seed uint64, rounds int, lookahead Time, workers int) (string, *Engine) {
	t.Helper()
	e := NewEngine(time.Duration(lookahead), workers)
	nds := newTraceNodes(nodes, seed, func(int) *Kernel { return e.NewKernel() })
	runTraceWorkload(nds, rounds, lookahead, func(src, dst *traceNode, at Time, fn func()) {
		e.Post(src.k, dst.k, at, fn)
	})
	e.Run()
	t.Cleanup(e.Shutdown)
	return mergedTrace(t, nds), e
}

// TestEngineRunWindowsExact proves the window budget is exact:
// stepping an engine in small RunWindows increments must visit exactly the
// same number of windows as a single Run, with the same final trace, never
// overshooting the budget. This is what keeps crashcheck's stepTo(w)
// landing exactly on window w.
func TestEngineRunWindowsExact(t *testing.T) {
	const nodes, rounds = 4, 30
	lookahead := Time(nodes * (nodes + 1) * 16)
	for _, seed := range []uint64{3, 11} {
		want, base := traceRun(t, nodes, seed, rounds, lookahead, 1)
		wantWin := base.Windows()
		for _, step := range []int{1, 3, 7} {
			e := NewEngine(time.Duration(lookahead), 2)
			nds := newTraceNodes(nodes, seed, func(int) *Kernel { return e.NewKernel() })
			runTraceWorkload(nds, rounds, lookahead, func(src, dst *traceNode, at Time, fn func()) {
				e.Post(src.k, dst.k, at, fn)
			})
			total := uint64(0)
			for {
				n := e.RunWindows(step)
				total += uint64(n)
				if e.Windows() != total {
					t.Fatalf("seed=%d step=%d: Windows()=%d after %d budgeted windows", seed, step, e.Windows(), total)
				}
				if n < step {
					break
				}
			}
			if total != wantWin {
				t.Fatalf("seed=%d step=%d: stepped run visited %d windows, Run visited %d", seed, step, total, wantWin)
			}
			e.Shutdown()
			if got := mergedTrace(t, nds); got != want {
				t.Fatalf("seed=%d step=%d: stepped trace diverged", seed, step)
			}
		}
	}
}

// TestEngineSoloKernel pins the solo-window path: a single busy kernel
// beside idle ones never enters the worker barrier, and idle-skip
// accounting covers the idle kernels every window.
func TestEngineSoloKernel(t *testing.T) {
	e := NewEngine(100*time.Nanosecond, 4)
	busy := e.NewKernel()
	e.NewKernel() // idle
	e.NewKernel() // idle
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 1000 {
			busy.Schedule(busy.Now()+37, tick)
		}
	}
	busy.Schedule(0, tick)
	e.Run()
	if n != 1000 {
		t.Fatalf("ran %d ticks, want 1000", n)
	}
	if e.Barriers() != 0 {
		t.Fatalf("solo workload entered %d barriers, want 0", e.Barriers())
	}
	if want := e.Windows() * 2; e.IdleSkips() != want {
		t.Fatalf("idleSkips=%d, want %d (2 idle kernels every window)", e.IdleSkips(), want)
	}
}

// TestEngineSoloDeliversInOrder pins delivery out of a solo stretch:
// messages a kernel emits while it runs alone must reach the destination
// before the destination's next window, in canonical order.
func TestEngineSoloDeliversInOrder(t *testing.T) {
	la := Time(100)
	e := NewEngine(time.Duration(la), 1)
	a, b := e.NewKernel(), e.NewKernel()
	var got []Time
	// a runs a long solo stretch (b idle), emitting to b mid-stretch.
	n := 0
	var tick func()
	tick = func() {
		n++
		if n == 5 || n == 9 {
			at := a.Now() + la
			e.Post(a, b, at, func() { got = append(got, b.Now()) })
		}
		if n < 50 {
			a.Schedule(a.Now()+13, tick)
		}
	}
	a.Schedule(0, tick)
	e.Run()
	if len(got) != 2 || got[0] >= got[1] {
		t.Fatalf("cross deliveries out of order or lost: %v", got)
	}
	if e.Crossed() != 2 {
		t.Fatalf("crossed=%d, want 2", e.Crossed())
	}
}
