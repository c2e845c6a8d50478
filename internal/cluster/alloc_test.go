package cluster

import (
	"testing"

	"prdma/internal/sim"
)

// putBench builds a minimal cluster without *testing.T so benchmarks and
// AllocsPerRun tests share it.
type putBench struct {
	k *sim.Kernel
	c *PCluster
}

func newPutBench() (*putBench, error) {
	k := sim.New()
	p := DefaultParams()
	p.Shards = 2
	p.Replicas = 3
	p.PoolSize = 2
	p.Objects = 128
	p.ObjSize = 256
	c, err := New(k, p)
	if err != nil {
		return nil, err
	}
	return &putBench{k: k, c: c}, nil
}

// puts drives n replicated puts over a small key set and returns the first
// error.
func (b *putBench) puts(n int, payload []byte) error {
	var firstErr error
	b.k.Go("driver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := b.c.PutOn(p, 0, uint64(i%64), 0, payload); err != nil && firstErr == nil {
				firstErr = err
				return
			}
		}
	})
	b.k.Run()
	return firstErr
}

// TestReplicatedPutAllocRegression pins the steady-state allocation cost of
// one replicated put: R=3 durable fan-out (pooled wire/entry images from
// the PR 4 data plane) + routing + the acknowledged-write record (per-key
// buffers reused after first touch). The remaining allocations are the
// per-op futures/Pending envelopes and replicate's completion closures.
//
// Measured on the reference toolchain: ≈ 103 allocs/op at R=3 (roughly 3×
// the ~35 of a single durable echo plus the replication bookkeeping). The
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
