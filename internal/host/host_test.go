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
	h.PM.WriteRaw(0, []byte{1})
	h.DRAM.Write(DRAMBase, []byte{2})
	h.LLC.InstallDirty(64, 1, []byte{3})
	h.Crash()
	if h.PM.ReadBytes(0, 1)[0] != 1 {
		t.Fatal("PM lost on crash")
	}
	if h.DRAM.Read(DRAMBase, 1)[0] != 0 {
		t.Fatal("DRAM survived crash")
	}
	if h.LLC.DirtyIn(64, 1) {
		t.Fatal("LLC dirty lines survived crash")
	}
	if h.NIC.EP.Up() {
		t.Fatal("NIC still up after crash")
	}
	if h.Crashes != 1 {
		t.Fatalf("Crashes = %d", h.Crashes)
	}
	h.Restart()
	if !h.NIC.EP.Up() {
		t.Fatal("NIC down after restart")
	}
	_ = k
}

func TestArenasDisjointRegions(t *testing.T) {
	_, h := newHost("h", nil)
	pa, err := h.PMArena.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	da, err := h.DRAMArena.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if pa >= DRAMBase || da < DRAMBase {
		t.Fatalf("arena addresses in wrong regions: pm=%#x dram=%#x", pa, da)
	}
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
