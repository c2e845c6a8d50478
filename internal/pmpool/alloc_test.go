package pmpool

import (
	"bytes"
	"encoding/binary"
	"testing"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/rnic"
	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// TestRenewCountOverflowRejected sends lease-renewal records whose count
// claims more ids than the record carries: counts whose 8-byte multiple
// overflows (2^61) or that are negative as an int (2^63), and one more than
// the record holds. Each must answer statusBad. Before the count was checked
// without multiplying it, 2^61 wrapped the length check to 0 and the
// handler indexed past the payload, a panic that reached the caller of Run.
func TestRenewCountOverflowRejected(t *testing.T) {
	k, servers, pool := testCluster(t, 1, DefaultServerConfig())
	k.Go("driver", func(p *sim.Proc) {
		defer stopAll(pool, servers)
		for _, n := range []uint64{1 << 61, 1 << 63, 3} {
			req := encodeRenew([]uint64{1, 2})
			binary.LittleEndian.PutUint64(req.Payload[8:], n)
			resp, err := pool.call(p, 0, req)
			if err != nil {
				t.Errorf("renew with count %d: %v", n, err)
				return
			}
			res, err := decodeResult(resp.Data)
			if err != nil || res.status != statusBad {
				t.Errorf("renew with count %d: result %+v, %v; want statusBad", n, res, err)
			}
		}
	})
	k.Run()
	k.Shutdown()
	if servers[0].Renews != 0 {
		t.Fatalf("Renews = %d after three malformed records, want 0", servers[0].Renews)
	}
}

// TestPoolSwitchRegression pins the pool server as kernel callbacks: a
// server with leases (LeaseTTL > 0) spawns no proc, its worker and its
// lease reclaimer run as callbacks, and one client's alloc→write→read→free
// cycle costs at most 0.25 switches. What is left is the client's
// lease renewer waking every LeaseTTL/3 and handing the kernel back.
//
// Measured on the reference toolchain: 0.06 switches per cycle. With the
// server's worker and reclaimer as procs (NewServer spawned 2) the same
// cycle cost 8.08.
func TestPoolSwitchRegression(t *testing.T) {
	const cycles, ceiling = 400, 0.25
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), 1)
	rcfg := rpc.DefaultConfig()
	rcfg.LogBytes = 64 << 10
	scfg := DefaultServerConfig()
	h := host.New(k, "pool0", net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
	srv := NewServer(h, rcfg, scfg)
	if n := k.Procs(); n != 0 {
		t.Fatalf("NewServer with LeaseTTL %v spawned %d procs, want 0", scfg.LeaseTTL, n)
	}
	cli := host.New(k, "cli", net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
	pcfg := DefaultPoolConfig(1)
	pcfg.LeaseTTL = scfg.LeaseTTL
	pool := NewPool(cli, []*Server{srv}, rcfg, pcfg)

	data := bytes.Repeat([]byte{0x5A}, 256)
	cycle := func(p *sim.Proc) error {
		hd, err := pool.Alloc(p, int64(len(data)))
		if err != nil {
			return err
		}
		if err := pool.Write(p, hd, 0, data); err != nil {
			return err
		}
		if _, err := pool.Read(p, hd, 0, len(data)); err != nil {
			return err
		}
		return pool.Free(p, hd)
	}
	var per float64
	var err error
	k.Go("driver", func(p *sim.Proc) {
		defer stopAll(pool, []*Server{srv})
		for i := 0; i < 50 && err == nil; i++ {
			err = cycle(p)
		}
		before := k.Switches()
		for i := 0; i < cycles && err == nil; i++ {
			err = cycle(p)
		}
		per = float64(k.Switches()-before) / cycles
	})
	k.Run()
	k.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if per > ceiling {
		t.Fatalf("pool cycle: %.2f switches, want <= %.2f", per, ceiling)
	}
	t.Logf("pool cycle: %.2f switches", per)
}

// TestPoolReplyAllocRegression pins the allocations of a pool read and of a
// control round trip (an alloc and a free, two control replies). Each reply
// travels in one buffer: the server reads PM straight into the response
// image's body and encodes control results in place, where it used to read
// or encode into a buffer of its own that the worker then copied into the
// image.
//
// Measured on the reference toolchain: 11.1 allocs per read and 20.6 per
// control reply; with the extra buffer, 12.1 and 21.6, so the ceilings
// fail there. No leases run, so the kernel drains after each batch.
func TestPoolReplyAllocRegression(t *testing.T) {
	const rounds = 100
	for _, tc := range []struct {
		name    string
		ceiling float64
		replies int // per round
		round   func(p *sim.Proc, pool *Pool, hd *Handle) error
	}{
		{"read", 11.5, 1, func(p *sim.Proc, pool *Pool, hd *Handle) error {
			_, err := pool.Read(p, hd, 0, 256)
			return err
		}},
		{"ctrl", 21, 2, func(p *sim.Proc, pool *Pool, _ *Handle) error {
			hd, err := pool.Alloc(p, 256)
			if err != nil {
				return err
			}
			return pool.Free(p, hd)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scfg := DefaultServerConfig()
			scfg.LeaseTTL = 0
			k, _, pool := testCluster(t, 1, scfg)
			var hd *Handle
			var err error
			run := func(n int) {
				k.Go("driver", func(p *sim.Proc) {
					for i := 0; i < n && err == nil; i++ {
						err = tc.round(p, pool, hd)
					}
				})
				k.Run()
			}
			k.Go("setup", func(p *sim.Proc) {
				if hd, err = pool.Alloc(p, 256); err == nil {
					err = pool.Write(p, hd, 0, make([]byte, 256))
				}
			})
			k.Run()
			run(200) // warm the pools, rings and the event heap
			per := testing.AllocsPerRun(3, func() { run(rounds) }) / (rounds * float64(tc.replies))
			if err != nil {
				t.Fatal(err)
			}
			if per > tc.ceiling {
				t.Fatalf("pool %s: %.1f allocs per reply, want <= %.1f", tc.name, per, tc.ceiling)
			}
			t.Logf("pool %s: %.1f allocs per reply", tc.name, per)
		})
	}
}
