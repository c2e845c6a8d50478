package rpc

import (
	"bytes"
	"testing"
	"time"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

func TestHotpotTwoPhaseWrite(t *testing.T) {
	b := newBench(t, 512, nil, nil)
	c := NewHotpot(b.cli, b.s, b.s.Cfg)
	payload := bytes.Repeat([]byte{0x55}, 512)
	b.run(t, func(p *sim.Proc) {
		w, err := c.Call(p, &Request{Op: OpWrite, Key: 3, Size: 512, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		// Two round trips: clearly slower than a single-round send RPC.
		if w.ReadyAt.Sub(w.IssuedAt) < 5*time.Microsecond {
			t.Errorf("hotpot write finished suspiciously fast: %v", w.ReadyAt.Sub(w.IssuedAt))
		}
		// Durable at the object home at completion.
		addr := b.store.Addr(3)
		if got := b.srv.PM.ReadBytes(addr, 512); !bytes.Equal(got, payload) {
			t.Error("hotpot commit did not persist the object")
		}
		r, err := c.Call(p, &Request{Op: OpRead, Key: 3, Size: 512, Payload: []byte{}})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.Data, payload) {
			t.Error("hotpot read-back mismatch")
		}
	})
}

func TestHotpotSlowerThanDaRPCWrites(t *testing.T) {
	lat := func(mk func(*bench) Client) time.Duration {
		b := newBench(t, 1024, nil, nil)
		c := mk(b)
		var total time.Duration
		const ops = 30
		b.run(t, func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				r, err := c.Call(p, &Request{Op: OpWrite, Key: uint64(i % 16), Size: 1024})
				if err != nil {
					t.Fatal(err)
				}
				total += r.ReadyAt.Sub(r.IssuedAt)
			}
		})
		return total / ops
	}
	hotpot := lat(func(b *bench) Client { return NewHotpot(b.cli, b.s, b.s.Cfg) })
	darpc := lat(func(b *bench) Client { return NewDaRPC(b.cli, b.s, b.s.Cfg) })
	if hotpot <= darpc {
		t.Fatalf("hotpot 2-phase write (%v) should cost more than DaRPC (%v)", hotpot, darpc)
	}
}

// mojimRig builds a client plus primary and mirror servers.
func mojimRig(t *testing.T) (*sim.Kernel, *host.Host, *Server, *Server) {
	t.Helper()
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), 41)
	np := rnic.DefaultParams()
	cli := host.New(k, "cli", net, host.DefaultParams(), pmem.DefaultParams(), np)
	ph := host.New(k, "primary", net, host.DefaultParams(), pmem.DefaultParams(), np)
	mh := host.New(k, "mirror", net, host.DefaultParams(), pmem.DefaultParams(), np)
	ps, err := NewStore(ph, 64, 1024)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewStore(mh, 64, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	return k, cli, NewServer(ph, ps, cfg), NewServer(mh, ms, cfg)
}

func TestMojimMirrorsBeforeAck(t *testing.T) {
	k, cli, primary, mirror := mojimRig(t)
	c := NewMojim(cli, primary, mirror, primary.Cfg)
	payload := bytes.Repeat([]byte{0x66}, 1024)
	completed := false
	k.Go("driver", func(p *sim.Proc) {
		w, err := c.Call(p, &Request{Op: OpWrite, Key: 7, Size: 1024, Payload: payload})
		if err != nil {
			t.Error(err)
			return
		}
		_ = w
		// At ack time BOTH copies are durable.
		for i, s := range []*Server{primary, mirror} {
			addr := s.Store.Addr(7)
			if got := s.H.PM.ReadBytes(addr, 1024); !bytes.Equal(got, payload) {
				t.Errorf("copy %d not durable at Mojim ack", i)
			}
		}
		completed = true
	})
	k.Run()
	if !completed {
		t.Fatal("mojim write never completed")
	}
}

func TestMojimCostsTwoHops(t *testing.T) {
	// Mojim's write must cost roughly two DaRPC-style hops.
	k, cli, primary, mirror := mojimRig(t)
	c := NewMojim(cli, primary, mirror, primary.Cfg)
	var mojim time.Duration
	k.Go("driver", func(p *sim.Proc) {
		const ops = 20
		for i := 0; i < ops; i++ {
			r, err := c.Call(p, &Request{Op: OpWrite, Key: uint64(i % 16), Size: 1024})
			if err != nil {
				t.Error(err)
				return
			}
			mojim += r.ReadyAt.Sub(r.IssuedAt) / ops
		}
	})
	k.Run()

	b := newBench(t, 1024, nil, nil)
	d := NewDaRPC(b.cli, b.s, b.s.Cfg)
	var darpc time.Duration
	b.run(t, func(p *sim.Proc) {
		const ops = 20
		for i := 0; i < ops; i++ {
			r, _ := d.Call(p, &Request{Op: OpWrite, Key: uint64(i % 16), Size: 1024})
			darpc += r.ReadyAt.Sub(r.IssuedAt) / ops
		}
	})
	ratio := float64(mojim) / float64(darpc)
	if ratio < 1.4 || ratio > 3.0 {
		t.Fatalf("mojim/darpc ratio %.2f, want ~2 (mirroring adds a hop)", ratio)
	}
}

func TestMojimReadsFromPrimaryOnly(t *testing.T) {
	k, cli, primary, mirror := mojimRig(t)
	c := NewMojim(cli, primary, mirror, primary.Cfg)
	k.Go("driver", func(p *sim.Proc) {
		if _, err := c.Call(p, &Request{Op: OpRead, Key: 1, Size: 1024}); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if primary.Store.Reads != 1 {
		t.Fatalf("primary reads = %d", primary.Store.Reads)
	}
	if mirror.Store.Reads != 0 {
		t.Fatal("read leaked to the mirror")
	}
}

// TestMojimSwitchRegression pins Mojim's primary and mirror loops as kernel
// callbacks: building the servers and the connection spawns no proc, and a
// mirrored write costs the client's call no switch (0.00
// measured on the reference toolchain). With the two loops and the
// servers' workers as procs, building the connection spawned two and a
// write cost 4.00 switches.
func TestMojimSwitchRegression(t *testing.T) {
	const calls, ceiling = 200, 0.05
	k, cli, primary, mirror := mojimRig(t)
	c := NewMojim(cli, primary, mirror, primary.Cfg)
	if n := k.Procs(); n != 0 {
		t.Fatalf("building Mojim's servers and connection spawned %d procs, want 0", n)
	}
	payload := make([]byte, 1024)
	var per float64
	var err error
	k.Go("driver", func(p *sim.Proc) {
		write := func(i int) error {
			_, err := c.Call(p, &Request{Op: OpWrite, Key: uint64(i % 16), Size: 1024, Payload: payload})
			return err
		}
		for i := 0; i < 20; i++ {
			if err = write(i); err != nil {
				return
			}
		}
		before := k.Switches()
		for i := 0; i < calls; i++ {
			if err = write(i); err != nil {
				return
			}
		}
		per = float64(k.Switches()-before) / calls
	})
	k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if per > ceiling {
		t.Fatalf("mojim: %.2f switches per write, want <= %.2f", per, ceiling)
	}
	t.Logf("mojim: %.2f switches per write", per)
}
