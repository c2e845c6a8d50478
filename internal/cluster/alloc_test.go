package cluster

import (
	"testing"

	"prdma/internal/sim"
)

// putBench builds a minimal one-gateway cluster without *testing.T so
// benchmarks and AllocsPerRun tests share it.
type putBench struct {
	c *PCluster
}

func newPutBench() (*putBench, error) {
	p := DefaultParams()
	p.Shards = 2
	p.Replicas = 3
	p.PoolSize = 2
	p.Gateways = 1
	p.Objects = 128
	p.ObjSize = 256
	c, err := NewPartitioned(1, p)
	if err != nil {
		return nil, err
	}
	return &putBench{c: c}, nil
}

// puts drives n replicated puts over a small key set and returns the first
// error.
func (b *putBench) puts(n int, payload []byte) error {
	var firstErr error
	b.c.Gateways[0].K.Go("driver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := b.c.PutOn(p, 0, uint64(i%64), 0, payload); err != nil && firstErr == nil {
				firstErr = err
				return
			}
		}
	})
	b.c.Eng.Run()
	return firstErr
}

// TestReplicatedPutAllocRegression pins the steady-state allocation cost of
// one replicated put: R=3 durable fan-out (pooled wire/entry images from
// the PR 4 data plane) + routing + the acknowledged-write record (per-key
// buffers reused after first touch). The remaining allocations are the
// per-op futures/Pending envelopes and replicate's completion closures.
//
// Measured on the reference toolchain (Go 1.24, amd64): 79.6 allocs/op at
// R=3, every message crossing from the gateway's kernel to its shard's. The
// ceiling of 190 leaves toolchain headroom while still catching an
// accidental per-op buffer copy or map churn on the routing path.
func TestReplicatedPutAllocRegression(t *testing.T) {
	const ceiling = 190.0
	b, err := newPutBench()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256)
	if err := b.puts(200, payload); err != nil {
		t.Fatal(err) // warm pools, the event heap, and the write records
	}
	const rounds = 100
	per := testing.AllocsPerRun(3, func() {
		if err := b.puts(rounds, payload); err != nil {
			t.Fatal(err)
		}
	}) / rounds
	if per > ceiling {
		t.Fatalf("replicated put allocates %.1f objects/op, want <= %.0f", per, ceiling)
	}
	t.Logf("replicated put: %.1f allocs/op", per)
}

// BenchmarkReplicatedPut measures the full replicated durable put (routing,
// R-way fan-out, quorum wait, record) at a 256 B object size.
func BenchmarkReplicatedPut(b *testing.B) {
	pb, err := newPutBench()
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	if err := pb.puts(b.N, payload); err != nil {
		b.Error(err)
	}
}

// TestPartitionedSwitchRegression pins the switches (Kernel.Switches) per
// op of a partitioned-cluster pass at one engine worker, shaped like the
// benchmark's kv_cluster (8 shards × 2 replicas behind 4 gateways, 16
// clients, half reads). The rpc receive loops and the servers' worker
// pools run as kernel callbacks and each multi-kernel window's kernels run
// as one chain, so what is left is client procs handing their gateway's
// kernel to each other and one hand-back per window.
//
// Measured on the reference toolchain: 2.01 switches per op. With the
// worker pools as procs the same pass cost 7.35, and with the receive
// loops as procs too and a hand-back per kernel per window, 16.35, so the
// ceiling fails on both.
func TestPartitionedSwitchRegression(t *testing.T) {
	const ceiling = 2.5
	p := DefaultParams()
	p.Shards, p.Replicas, p.Gateways, p.PoolSize = 8, 2, 4, 4
	p.Objects, p.ObjSize, p.Seed = 4096, 64, 3
	c, err := NewPartitioned(1, p)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Eng.Shutdown()
	l := Load{Clients: 16, Ops: 4000, ReadFrac: 0.5, Verify: true, Seed: 3}
	res, err := c.RunLoad(l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.BadReads != 0 || len(res.Samples) != l.Ops {
		t.Fatalf("errors=%d badReads=%d samples=%d, want 0, 0, %d", res.Errors, res.BadReads, len(res.Samples), l.Ops)
	}
	var switches uint64
	for _, k := range c.Eng.Kernels() {
		switches += k.Switches()
	}
	per := float64(switches) / float64(l.Ops)
	if per > ceiling {
		t.Fatalf("partitioned pass: %.2f switches per op, want <= %.1f", per, ceiling)
	}
	t.Logf("partitioned pass: %.2f switches per op", per)
}
