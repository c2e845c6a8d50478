package fabric

import (
	"testing"
	"time"

	"prdma/internal/sim"
)

// xferPayload is a pooled-transfer payload for slab tests. Unlike wireMsg
// clones — whose receivers retain Data past the refcount, forcing a fresh
// copy per crossing — this test payload's receiver never retains the slice,
// so the clone may reuse prev's buffer and the whole crossing is alloc-free.
type xferPayload struct {
	data []byte
	refs int
	rel  func()
}

func (p *xferPayload) CloneForTransferPooled(prev interface{}, release func()) interface{} {
	c, _ := prev.(*xferPayload)
	if c == nil {
		c = &xferPayload{}
	}
	c.refs, c.rel = 1, release
	c.data = append(c.data[:0], p.data...)
	return c
}

func (p *xferPayload) DropTransferRef() {
	p.refs--
	if p.refs == 0 {
		p.rel()
	}
}

// xferPair is a two-partition deployment with a cross ping-pong workload:
// a sends to b, b's handler replies to a, each hop paced by the propagation
// delay so every crossing rides the engine barrier.
type xferPair struct {
	e      *sim.Engine
	ka, kb *sim.Kernel
	a, b   *Endpoint
	n      *Network
	got    int
}

func newXferPair(t *testing.T, payload func() interface{}) *xferPair {
	t.Helper()
	p := DefaultParams()
	e := sim.NewEngine(p.Lookahead(), 2)
	ka, kb := e.NewKernel(), e.NewKernel()
	xp := &xferPair{e: e, ka: ka, kb: kb}
	n := New(ka, p, 7)
	xp.n = n
	xp.b = n.AttachOn(kb, "b", func(at sim.Time, m *Message) {
		xp.got++
		xp.b.SendPooled("a", 64, payload(), nil)
	})
	xp.a = n.AttachOn(ka, "a", func(at sim.Time, m *Message) {
		xp.got++
	})
	return xp
}

// TestCrossTransferSlabReuse proves envelopes recycle: after a warm-up
// round, further crossings are served from the slab, and the payload clone
// structs are the same objects crossing after crossing.
func TestCrossTransferSlabReuse(t *testing.T) {
	pay := &xferPayload{data: []byte("abcdefgh")}
	xp := newXferPair(t, func() interface{} { return pay })
	const rounds = 200
	for i := 0; i < rounds; i++ {
		xp.a.SendPooled("b", 64, pay, nil)
		xp.e.Run()
	}
	if xp.got != 2*rounds {
		t.Fatalf("delivered %d, want %d", xp.got, 2*rounds)
	}
	hits, misses := xp.n.XferSlabStats()
	if hits+misses != 2*rounds {
		t.Fatalf("slab stats %d+%d, want %d crossings", hits, misses, 2*rounds)
	}
	// Each direction allocates one envelope on its first crossing (the
	// ping-pong is strictly sequential), everything after is a hit.
	if misses > 4 {
		t.Fatalf("slab misses = %d, want <= 4 (one per direction plus slack)", misses)
	}
	if hits < int64(2*rounds)-4 {
		t.Fatalf("slab hits = %d, want >= %d", hits, int64(2*rounds)-4)
	}
}

// TestCrossTransferAllocFree is the AllocsPerRun pin on the steady-state
// cross-transfer path: with the slab warm, a partition crossing — envelope,
// Message, delivery event, payload clone — allocates nothing.
func TestCrossTransferAllocFree(t *testing.T) {
	pay := &xferPayload{data: []byte("abcdefgh")}
	xp := newXferPair(t, func() interface{} { return pay })
	run := func(rounds int) {
		for i := 0; i < rounds; i++ {
			xp.a.SendPooled("b", 64, pay, nil)
			xp.e.Run()
		}
	}
	run(64) // warm slabs, event pools, outbox capacity

	const rounds = 100
	per := testing.AllocsPerRun(5, func() { run(rounds) }) / (2 * rounds)
	if per != 0 {
		t.Fatalf("steady-state cross transfer allocates %.2f/crossing, want 0", per)
	}
}

// TestCrossTransferRetainedClone pins the deferred-release path: a receiver
// that takes its own reference keeps the clone (and its envelope) checked
// out past delivery, and the envelope is only reused after the release.
func TestCrossTransferRetainedClone(t *testing.T) {
	p := DefaultParams()
	e := sim.NewEngine(p.Lookahead(), 1)
	ka, kb := e.NewKernel(), e.NewKernel()
	n := New(ka, p, 7)
	var held []*xferPayload
	n.AttachOn(kb, "b", func(at sim.Time, m *Message) {
		pl := m.Payload.(*xferPayload)
		pl.refs++ // receiver retention, dropped later
		held = append(held, pl)
	})
	a := n.AttachOn(ka, "a", nil)

	pay := &xferPayload{data: []byte{1, 2, 3}}
	for i := 0; i < 3; i++ {
		ka.Schedule(sim.Time(i)*2000, func() { a.SendPooled("b", 64, pay, nil) })
	}
	e.Run()
	if len(held) != 3 {
		t.Fatalf("held %d clones, want 3", len(held))
	}
	// All three crossings allocated: the clone stays checked out, so the
	// slab could not serve any of them.
	if hits, misses := n.XferSlabStats(); hits != 0 || misses != 3 {
		t.Fatalf("slab stats hits=%d misses=%d, want 0/3 while clones are retained", hits, misses)
	}
	if held[0] == held[1] || held[1] == held[2] {
		t.Fatal("retained clones must be distinct objects")
	}
	// Drop the retentions; the envelopes park and the next crossing reuses.
	for _, pl := range held {
		pl.DropTransferRef()
	}
	ka.Schedule(ka.Now()+2000, func() { a.SendPooled("b", 64, pay, nil) })
	e.Run()
	if hits, _ := n.XferSlabStats(); hits != 1 {
		t.Fatalf("slab hits after release = %d, want 1", hits)
	}
}

// BenchmarkCrossTransfer measures one partition crossing (send, barrier
// merge, delivery, slab recycle) in steady state, with and without payload
// data riding along.
func BenchmarkCrossTransfer(b *testing.B) {
	for _, bc := range []struct {
		name string
		data []byte
	}{
		{"nil-payload", nil},
		{"64B-data", make([]byte, 64)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := DefaultParams()
			e := sim.NewEngine(p.Lookahead(), 1)
			ka, kb := e.NewKernel(), e.NewKernel()
			n := New(ka, p, 7)
			n.AttachOn(kb, "b", func(at sim.Time, m *Message) {})
			a := n.AttachOn(ka, "a", nil)
			pay := &xferPayload{data: bc.data}
			send := func() { a.SendPooled("b", 64, pay, nil) }
			step := func() {
				ka.Schedule(ka.Now()+2000, send)
				e.Run()
			}
			for i := 0; i < 64; i++ { // warm
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// BenchmarkWindowBarrier measures an engine window with two active kernels
// and no cross traffic — the pure coordination cost the sense-reversing
// barrier replaces the channel dispatch with.
func BenchmarkWindowBarrier(b *testing.B) {
	for _, workers := range []int{1, 2} {
		name := map[int]string{1: "serial", 2: "2workers"}[workers]
		b.Run(name, func(b *testing.B) {
			e := sim.NewEngine(100*time.Nanosecond, workers)
			ka, kb := e.NewKernel(), e.NewKernel()
			stop := false
			var ta, tb func()
			ta = func() {
				if !stop {
					ka.Schedule(ka.Now()+100, ta)
				}
			}
			tb = func() {
				if !stop {
					kb.Schedule(kb.Now()+100, tb)
				}
			}
			ka.Schedule(0, ta)
			kb.Schedule(0, tb)
			e.RunWindows(64) // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.RunWindows(1)
			}
			b.StopTimer()
			stop = true
			e.Run()
		})
	}
}
