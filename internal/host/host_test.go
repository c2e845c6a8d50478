package host

import (
	"bytes"
	"testing"
	"time"

	"prdma/internal/fabric"
	"prdma/internal/pmem"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

func newHost(name string, mod func(*Params)) (*sim.Kernel, *Host) {
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), 1)
	hp := DefaultParams()
	if mod != nil {
		mod(&hp)
	}
	return k, New(k, name, net, hp, pmem.DefaultParams(), rnic.DefaultParams())
}

func TestLoadFactorInflatesCosts(t *testing.T) {
	measure := func(lf float64) time.Duration {
		k, h := newHost("h", func(p *Params) { p.LoadFactor = lf; p.JitterSigma = 0 })
		var d time.Duration
		k.Go("c", func(p *sim.Proc) {
			start := p.Now()
			h.Compute(p, 10*time.Microsecond)
			d = p.Now().Sub(start)
		})
		k.Run()
		return d
	}
	idle, busy := measure(1), measure(4)
	if busy != 4*idle {
		t.Fatalf("busy %v != 4x idle %v", busy, idle)
	}
}

func TestComputeExactIgnoresLoad(t *testing.T) {
	k, h := newHost("h", func(p *Params) { p.LoadFactor = 8; p.JitterSigma = 1 })
	var done sim.Time
	h.ComputeExactFunc(100*time.Microsecond, func() { done = k.Now() })
	k.Run()
	if done != sim.Time(0).Add(100*time.Microsecond) || h.SWTime != 100*time.Microsecond {
		t.Fatalf("exact compute ended at %v with SWTime %v", done, h.SWTime)
	}
}

func TestJitterIsDeterministicPerHost(t *testing.T) {
	sample := func() []time.Duration {
		k, h := newHost("same-name", nil)
		var out []time.Duration
		k.Go("c", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				s := p.Now()
				h.Compute(p, time.Microsecond)
				out = append(out, p.Now().Sub(s))
			}
		})
		k.Run()
		return out
	}
	a, b := sample(), sample()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("jitter not deterministic across identical runs")
		}
	}
}

func TestJitterHasVariance(t *testing.T) {
	k, h := newHost("h", nil)
	seen := make(map[time.Duration]bool)
	k.Go("c", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			s := p.Now()
			h.Compute(p, 10*time.Microsecond)
			seen[p.Now().Sub(s)] = true
		}
	})
	k.Run()
	if len(seen) < 10 {
		t.Fatalf("jitter produced only %d distinct costs", len(seen))
	}
}

func TestMemcpyScalesWithSize(t *testing.T) {
	k, h := newHost("h", func(p *Params) { p.JitterSigma = 0 })
	var small, large time.Duration
	s := k.Now()
	h.MemcpyFunc(1024, func() {
		small = k.Now().Sub(s)
		s = k.Now()
		h.MemcpyFunc(1024*1024, func() { large = k.Now().Sub(s) })
	})
	k.Run()
	if large < 100*small {
		t.Fatalf("1MiB copy (%v) should dwarf 1KiB copy (%v)", large, small)
	}
}

func TestPersistCPUMakesDurable(t *testing.T) {
	k, h := newHost("h", nil)
	data := []byte("durable via clwb")
	var at sim.Time
	h.PM.PersistFunc(4096, len(data), data, pmem.CPU, func() { at = k.Now() })
	k.Run()
	if at != sim.Time(0).Add(h.PM.PersistCost(len(data), pmem.CPU)) {
		t.Fatalf("CPU persist completed at %v", at)
	}
	if !bytes.Equal(h.PM.ReadBytes(4096, len(data)), data) {
		t.Fatal("the CPU-path persist did not persist")
	}
}

func TestCrashClearsVolatileKeepsPM(t *testing.T) {
	k, h := newHost("h", nil)
	// reachable reports whether a peer's RDMA write to h completes within a
	// millisecond, which it does only while h's NIC is up.
	peer := New(k, "peer", h.NIC.EP.Net, DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
	reachable := func() bool {
		q, r := peer.NIC.CreateQP(rnic.RC), h.NIC.CreateQP(rnic.RC)
		rnic.Connect(q, r)
		ok := false
		k.Go("probe", func(p *sim.Proc) {
			_, ok = q.WriteAsync(4096, 64, nil).WaitTimeout(p, time.Millisecond)
		})
		k.RunFor(2 * time.Millisecond)
		return ok
	}
	h.PM.WriteRaw(0, []byte{1})
	h.DRAM.Write(ReadBase, []byte{2})
	h.LLC.InstallDirty(64, 1, []byte{3})
	h.Crash()
	if h.PM.ReadBytes(0, 1)[0] != 1 {
		t.Fatal("PM lost on crash")
	}
	if h.DRAM.Read(ReadBase, 1)[0] != 0 {
		t.Fatal("DRAM survived crash")
	}
	if h.LLC.DirtyIn(64, 1) {
		t.Fatal("LLC dirty lines survived crash")
	}
	if reachable() {
		t.Fatal("NIC still up after crash")
	}
	if h.Crashes != 1 {
		t.Fatalf("Crashes = %d", h.Crashes)
	}
	h.Restart()
	if !reachable() {
		t.Fatal("NIC down after restart")
	}
}

func TestArenasDisjointRegions(t *testing.T) {
	_, h := newHost("h", nil)
	alloc := func(a *pmem.Arena) int64 {
		addr, err := a.Alloc(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		return addr
	}
	pa, ma, ra := alloc(h.PMArena), alloc(h.MsgArena), alloc(h.ReadArena)
	if pa >= MsgBase || ma < MsgBase || ma >= ReadBase || ra < ReadBase {
		t.Fatalf("arena addresses in wrong regions: pm=%#x msg=%#x read=%#x", pa, ma, ra)
	}
}

// TestDRAMRegionsAfterRestart pins the DRAM regions' registrations, before
// a crash and after Crash+Restart: a peer's write into the message region
// reaches h's software in its arrival and stores nothing in DRAM, a peer's
// read of it faults the QP, and a read of the readable region returns what
// h's CPU wrote there.
func TestDRAMRegionsAfterRestart(t *testing.T) {
	k, h := newHost("h", nil)
	peer := New(k, "peer", h.NIC.EP.Net, DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
	msg, err := h.MsgArena.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.ReadArena.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		want := []byte("deposited result")
		h.DRAM.Write(res, want)
		footprint, faults := h.DRAM.Footprint(), h.NIC.AccessViolations
		q, r := peer.NIC.CreateQP(rnic.RC), h.NIC.CreateQP(rnic.RC)
		rnic.Connect(q, r)
		var got []byte
		k.Go("peer", func(p *sim.Proc) {
			q.WriteAsync(msg, 8, []byte("request!")).Wait(p)
			got = q.Read(p, res, make([]byte, len(want)))
			q.ReadAsync(msg, make([]byte, 8)) // faults: never completes
		})
		k.RunFor(time.Millisecond)
		if a, ok := r.Arrivals.TryPop(); !ok || string(a.Data) != "request!" {
			t.Fatalf("%s: the write's arrival carries %q (arrived: %v)", when, a.Data, ok)
		}
		if n := h.DRAM.Footprint(); n != footprint {
			t.Fatalf("%s: DRAM holds %d bytes after the write, want the %d the CPU wrote", when, n, footprint)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: read of the readable region returned %q, want %q", when, got, want)
		}
		if d := h.NIC.AccessViolations - faults; d != 1 {
			t.Fatalf("%s: read of the message region raised %d access violations, want 1", when, d)
		}
	}
	check("before crash")
	h.Crash()
	h.Restart()
	check("after restart")
}

func TestPostPollDispatchCharges(t *testing.T) {
	k, h := newHost("h", func(p *Params) { p.JitterSigma = 0 })
	var total time.Duration
	k.Go("c", func(p *sim.Proc) {
		s := p.Now()
		h.Post(p)
		h.PollDelayFunc(func() {
			h.DispatchFunc(func() { total = k.Now().Sub(s) })
		})
	})
	k.Run()
	want := h.Params.PostWR + h.Params.PollDetect + h.Params.Dispatch
	if total != want || h.SWTime != want {
		t.Fatalf("total = %v, SWTime = %v, want %v", total, h.SWTime, want)
	}
}
