package rpc

import (
	"fmt"
	"runtime"
	"testing"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// echoBench builds a one-client one-server cluster without *testing.T so
// both benchmarks and AllocsPerRun tests can drive it.
type echoBench struct {
	k        *sim.Kernel
	c        Client
	cli, srv *host.Host
	// procs is how many procs building the server and the connection
	// spawned.
	procs int
}

func newEchoBench(kind Kind, objSize int) (*echoBench, error) {
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), 7)
	np := rnic.DefaultParams()
	cli := host.New(k, "cli", net, host.DefaultParams(), pmem.DefaultParams(), np)
	srv := host.New(k, "srv", net, host.DefaultParams(), pmem.DefaultParams(), np)
	store, err := NewStore(srv, 128, objSize)
	if err != nil {
		return nil, err
	}
	cfg := DefaultConfig()
	s := NewServer(srv, store, cfg)
	c := New(kind, cli, s, cfg)
	return &echoBench{k: k, c: c, cli: cli, srv: srv, procs: k.Procs()}, nil
}

// echo drives n durable write round trips (call + wait for server-side
// processing) and returns the first error.
func (e *echoBench) echo(n, size int, payload []byte) error {
	var err error
	e.k.Go("driver", func(p *sim.Proc) { err = e.echoOn(p, n, size, payload) })
	e.k.Run()
	return err
}

// echoOn is echo's loop, on the driver proc p.
func (e *echoBench) echoOn(p *sim.Proc, n, size int, payload []byte) error {
	for i := 0; i < n; i++ {
		r, err := e.c.Call(p, &Request{Op: OpWrite, Key: uint64(i % 128), Size: size, Payload: payload})
		if err != nil {
			return err
		}
		r.Done.Wait(p)
	}
	return nil
}

// readKeys is how many objects the read benchmarks cycle through.
const readKeys = 8

// read drives n contents-returning reads of size bytes over the first
// readKeys keys and returns the first error.
func (e *echoBench) read(n, size int) error {
	var firstErr error
	e.k.Go("driver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			r, err := e.c.Call(p, &Request{Op: OpRead, Key: uint64(i % readKeys), Size: size, Payload: []byte{}})
			if err == nil && len(r.Data) != size {
				err = fmt.Errorf("read returned %d bytes, want %d", len(r.Data), size)
			}
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			r.Done.Wait(p)
		}
	})
	e.k.Run()
	return firstErr
}

// newReadBench is newEchoBench with the first readKeys objects written, so
// reads return real contents.
func newReadBench(kind Kind, size int) (*echoBench, error) {
	e, err := newEchoBench(kind, size)
	if err != nil {
		return nil, err
	}
	return e, e.echo(readKeys, size, make([]byte, size))
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes
// one call of f allocates, measured on one P after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestLargeReadAllocRegression pins the heap bytes of a steady-state 64 KiB
// read round trip. A reply image is a connection resource: the store reads
// PM straight into an image drawn from the requesting connection, which
// takes it back once RingSlots further replies have completed, and RFP's
// polls read into a connection-owned buffer the NIC copies the response
// into. So a read allocates no object-sized buffer at all; what is left is
// per-op control state. FaSST is skipped: a 64 KiB reply exceeds its UD MTU.
//
// Measured on the reference toolchain: 0.01-0.02x the object size on every
// kind, RFP included. With a fresh image per read (and on RFP a fresh
// snapshot per poll) the same loop measured 1.14x, and 3.39x on RFP, so the
// one ceiling fails on every kind there.
func TestLargeReadAllocRegression(t *testing.T) {
	const size, ceiling = 64 << 10, 0.1
	for _, kind := range Kinds {
		if kind == FaSST {
			continue
		}
		t.Run(kind.String(), func(t *testing.T) {
			e, err := newReadBench(kind, size)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.read(200, size); err != nil {
				t.Fatal(err) // warm the pools, rings and the event heap
			}
			const rounds = 50
			per := bytesPerRun(3, func() {
				if err := e.read(rounds, size); err != nil {
					t.Fatal(err)
				}
			}) / rounds / size
			if per > ceiling {
				t.Fatalf("%s 64 KiB read allocates %.2fx the object size, want <= %.2fx", kind, per, ceiling)
			}
			t.Logf("%s: %.2fx the object size per read", kind, per)
		})
	}
}

// TestLargeReadDRAMFootprint pins what host DRAM holds after 64 KiB reads:
// only what a peer reads back with one-sided reads. Request and response
// rings and receive buffers sit in the message region, whose bytes reach
// software in their completions and are never stored, so every host's DRAM
// stays empty except RFP's server, which deposits results for the client
// to fetch, and ScaleRPC's client, which stages warm-up requests for the
// server to fetch. FaSST is skipped: a 64 KiB reply exceeds its UD MTU.
// A NIC that stores DMA into the message region fails on every kind: each
// client's response ring then holds the replies' bytes.
func TestLargeReadDRAMFootprint(t *testing.T) {
	const size = 64 << 10
	for _, kind := range append(append([]Kind{}, Kinds...), LITE, Hotpot, OctopusWFlush) {
		if kind == FaSST {
			continue
		}
		t.Run(kind.String(), func(t *testing.T) {
			e, err := newReadBench(kind, size)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.read(20, size); err != nil {
				t.Fatal(err)
			}
			for _, h := range []*host.Host{e.cli, e.srv} {
				n := h.DRAM.Footprint()
				reads := kind == RFP && h == e.srv || kind == ScaleRPC && h == e.cli
				if reads && n == 0 || !reads && n != 0 {
					t.Errorf("%s %s DRAM holds %d bytes, want them only where a peer reads", kind, h.Name, n)
				}
			}
		})
	}
}

// TestDurableEchoAllocRegression pins the steady-state allocation cost of a
// full durable-RPC write round trip for every durable family. With the
// pooled data plane warm (wire messages, fabric envelopes, NIC jobs, retry
// timers, entry images, response headers), the remaining allocations are
// dominated by per-op futures/conds in the sim layer plus the response
// struct, none of which are pooled (they escape to callers).
//
// Measured on the reference toolchain: WFlush ≈ 35, SFlush ≈ 37,
// W-RFlush ≈ 29, S-RFlush ≈ 30 allocs/op. The seed tree spent 88–108 on
// the same loop, so the ceiling of 55 both leaves headroom for toolchain
// drift and still proves the ≥30% reduction this PR claims.
func TestDurableEchoAllocRegression(t *testing.T) {
	const size = 1024
	const ceiling = 55.0
	for _, kind := range DurableKinds {
		t.Run(kind.String(), func(t *testing.T) {
			e, err := newEchoBench(kind, size)
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, size)
			if err := e.echo(200, size, payload); err != nil {
				t.Fatal(err) // warm the pools and the event heap
			}
			const rounds = 100
			per := testing.AllocsPerRun(3, func() {
				if err := e.echo(rounds, size, payload); err != nil {
					t.Fatal(err)
				}
			}) / rounds
			if per > ceiling {
				t.Fatalf("%s echo allocates %.1f objects/op, want <= %.0f", kind, per, ceiling)
			}
			t.Logf("%s: %.1f allocs/op", kind, per)
		})
	}
}

// TestReceiveLoopSwitchRegression pins the switches (Kernel.Switches) of a
// single-client 64 B write followed by Done.Wait, for every kind plus Herd,
// LITE and Hotpot. Every receive loop runs as kernel callbacks (recvLoop),
// and so do the worker pool and the store's apply (worker, storeApply), so
// building a server and a connection spawns no proc and the client's call
// is the only proc left: it runs the kernel itself until its own wake, and
// hands the kernel to no one. The count runs inside the driver proc, so
// the run's start and hand-back are not in it.
//
// Measured on the reference toolchain: 0.00 switches per call on every
// kind. With the worker pool as procs the client and the worker handed the
// kernel to each other: 2.00 switches per call on most kinds, 2.69 on RFP
// and 2.23 on the two RFlush kinds; with the receive loops as procs too,
// 4.00-5.70. The ceiling fails on both.
func TestReceiveLoopSwitchRegression(t *testing.T) {
	const size, calls, ceiling = 64, 400, 0.05
	for _, kind := range append(append([]Kind{}, Kinds...), Herd, LITE, Hotpot) {
		t.Run(kind.String(), func(t *testing.T) {
			e, err := newEchoBench(kind, size)
			if err != nil {
				t.Fatal(err)
			}
			if e.procs != 0 {
				t.Fatalf("building a %s server and connection spawned %d procs, want 0", kind, e.procs)
			}
			payload := make([]byte, size)
			var per float64
			e.k.Go("driver", func(p *sim.Proc) {
				if err = e.echoOn(p, 100, size, payload); err != nil {
					return
				}
				before := e.k.Switches()
				err = e.echoOn(p, calls, size, payload)
				per = float64(e.k.Switches()-before) / calls
			})
			e.k.Run()
			if err != nil {
				t.Fatal(err)
			}
			if per > ceiling {
				t.Fatalf("%s: %.2f switches per call, want <= %.2f", kind, per, ceiling)
			}
			t.Logf("%s: %.2f switches per call", kind, per)
		})
	}
}

// BenchmarkDurableEcho measures the full durable-RPC write round trip
// (encode, log append, NIC/fabric hops, PM persist, response) for each
// durable family at a 1 KiB object size.
func BenchmarkDurableEcho(b *testing.B) {
	for _, kind := range DurableKinds {
		b.Run(kind.String(), func(b *testing.B) {
			const size = 1024
			e, err := newEchoBench(kind, size)
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, size)
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.echo(b.N, size, payload); err != nil {
				b.Error(err)
			}
		})
	}
}

// BenchmarkLargeRead measures a 64 KiB read round trip, contents returned,
// on every kind whose transport carries it (FaSST's UD MTU does not).
func BenchmarkLargeRead(b *testing.B) {
	const size = 64 << 10
	for _, kind := range Kinds {
		if kind == FaSST {
			continue
		}
		b.Run(kind.String(), func(b *testing.B) {
			e, err := newReadBench(kind, size)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.read(b.N, size); err != nil {
				b.Error(err)
			}
		})
	}
}
