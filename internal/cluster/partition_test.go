package cluster

import (
	"testing"
	"time"

	"prdma/internal/rpc"
	"prdma/internal/ycsb"
)

func partParams() Params {
	p := DefaultParams()
	p.Shards = 2
	p.Replicas = 2
	p.PoolSize = 2
	p.Gateways = 2
	p.Objects = 256
	p.ObjSize = 64
	return p
}

// runPart builds a partitioned cluster at the given worker count, drives l,
// and returns (result, consistency error).
func runPart(t *testing.T, workers int, l Load) (*LoadResult, error) {
	t.Helper()
	c, err := NewPartitioned(workers, partParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunLoad(l)
	if err != nil {
		t.Fatal(err)
	}
	return res, c.CheckConsistency()
}

// TestPartitionedClusterDeterminism pins the tentpole contract at the top of
// the stack: the full partitioned KV cluster — gateways, replicated durable
// connections, consistent-hash routing — produces an identical merged result
// at 1, 2 and 4 workers, stays consistent, and verifies every read.
func TestPartitionedClusterDeterminism(t *testing.T) {
	l := Load{Clients: 8, Ops: 300, ReadFrac: 0.5, Verify: true, Seed: 42}
	base, cerr := runPart(t, 1, l)
	if cerr != nil {
		t.Fatalf("workers=1: consistency: %v", cerr)
	}
	if base.Errors != 0 || base.BadReads != 0 {
		t.Fatalf("workers=1: errors=%d badReads=%d", base.Errors, base.BadReads)
	}
	if len(base.Samples) != l.Ops {
		t.Fatalf("workers=1: %d samples, want %d", len(base.Samples), l.Ops)
	}
	for _, workers := range []int{2, 4} {
		res, cerr := runPart(t, workers, l)
		if cerr != nil {
			t.Fatalf("workers=%d: consistency: %v", workers, cerr)
		}
		if res.Fingerprint() != base.Fingerprint() {
			t.Fatalf("workers=%d: fingerprint %x != workers=1 %x", workers, res.Fingerprint(), base.Fingerprint())
		}
	}
}

// TestPartitionedOpenLoopPopulation exercises the open-loop path with a
// logical population far above the worker count: the run completes, arrivals
// attribute to a wide slice of the population, the queue stays bounded, and
// worker counts again agree bit-for-bit.
func TestPartitionedOpenLoopPopulation(t *testing.T) {
	l := Load{
		Clients: 8, Ops: 400, ReadFrac: 0.5,
		OpenLoop: true, Rate: 5e5, LogicalClients: 100_000,
		Seed: 7,
	}
	base, cerr := runPart(t, 1, l)
	if cerr != nil {
		t.Fatalf("consistency: %v", cerr)
	}
	if base.Errors != 0 {
		t.Fatalf("errors=%d", base.Errors)
	}
	if len(base.Samples) != l.Ops {
		t.Fatalf("%d samples, want %d", len(base.Samples), l.Ops)
	}
	if base.DistinctClients < l.Ops/2 {
		t.Fatalf("only %d distinct logical clients over %d ops", base.DistinctClients, l.Ops)
	}
	if base.QueueHWM <= 0 || base.QueueHWM > l.Ops {
		t.Fatalf("queue high-water %d out of range", base.QueueHWM)
	}
	res2, _ := runPart(t, 2, l)
	if res2.Fingerprint() != base.Fingerprint() {
		t.Fatalf("workers=2 fingerprint diverged")
	}
}

// TestPartitionedAllDurableFamilies pins engine-mode parity at the cluster
// layer: every durable RPC family deploys partitioned, finishes the verified
// workload consistently, and stays worker-count deterministic. Non-durable
// families are still rejected — there is no persistence contract to check.
func TestPartitionedAllDurableFamilies(t *testing.T) {
	l := Load{Clients: 4, Ops: 120, ReadFrac: 0.3, Verify: true, Seed: 11}
	for _, kind := range []rpc.Kind{rpc.WFlushRPC, rpc.SFlushRPC, rpc.WRFlushRPC, rpc.SRFlushRPC} {
		t.Run(kind.String(), func(t *testing.T) {
			p := partParams()
			p.Kind = kind
			run := func(workers int) (*LoadResult, error) {
				c, err := NewPartitioned(workers, p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.RunLoad(l)
				if err != nil {
					t.Fatal(err)
				}
				return res, c.CheckConsistency()
			}
			base, cerr := run(1)
			if cerr != nil {
				t.Fatalf("workers=1: consistency: %v", cerr)
			}
			if base.Errors != 0 || base.BadReads != 0 {
				t.Fatalf("workers=1: errors=%d badReads=%d", base.Errors, base.BadReads)
			}
			res, cerr := run(4)
			if cerr != nil {
				t.Fatalf("workers=4: consistency: %v", cerr)
			}
			if res.Fingerprint() != base.Fingerprint() {
				t.Fatalf("workers=4: fingerprint %x != workers=1 %x", res.Fingerprint(), base.Fingerprint())
			}
		})
	}
	p := partParams()
	p.Kind = rpc.FaRM
	if _, err := NewPartitioned(1, p); err == nil {
		t.Fatal("non-durable partitioned deployment did not error")
	}
}

// TestPartitionedFailoverRecovery crashes a replica at a window barrier under
// a controller-managed single-gateway deployment and drives it through
// detect, promote, resync, and readmission — asserting no acknowledged write
// is lost and the cluster returns to full health.
func TestPartitionedFailoverRecovery(t *testing.T) {
	p := partParams()
	p.Gateways = 1
	p.Replicas = 3
	c, err := NewPartitioned(2, p)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableAckAudit()
	ct, err := c.StartController()
	if err != nil {
		t.Fatal(err)
	}
	load, err := c.StartLoad(Load{Clients: 4, Ops: 200, ReadFrac: 0.3, Verify: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(c, ct, load)
	d.StepTo(40)
	d.Crash(c.Now(), 0, 0)
	horizon := c.Now().Add(100 * time.Millisecond)
	d.Run(d.Settled, horizon)
	if c.Eng.Serialized() {
		t.Error("driver still holds the Serialize token with the cluster healthy and nothing left to inject")
	}
	d.Drain(horizon)
	res := load.Collect()
	if !load.Done() {
		t.Fatal("load never finished")
	}
	if !c.Healthy() {
		t.Fatal("cluster not healthy after recovery")
	}
	if res.Errors != 0 || res.BadReads != 0 {
		t.Fatalf("errors=%d badReads=%d", res.Errors, res.BadReads)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatalf("consistency: %v", err)
	}
	grp := c.Groups[0]
	if grp.Failovers == 0 {
		t.Fatal("crash never detected")
	}
	if grp.Resyncs == 0 {
		t.Fatal("victim never readmitted")
	}
	var promoted, resyncDone bool
	for _, ev := range ct.Events {
		switch ev.Kind {
		case "promote":
			promoted = true
		case "resync-done":
			resyncDone = true
		}
	}
	if !promoted || !resyncDone {
		t.Fatalf("controller events missing promote/resync-done: %v", ct.Events)
	}
	c.Eng.Shutdown()
}

// TestPartitionedMatchesSerialSemantics pins the load generator's
// semantics: every mix — the plain 70/30 closed loop and YCSB A (updates),
// E (scans and inserts) and F (read-modify-writes) — ends consistent with
// every read verified and every issued op accounted for.
func TestPartitionedMatchesSerialSemantics(t *testing.T) {
	for _, wl := range []ycsb.Workload{0, ycsb.A, ycsb.E, ycsb.F} {
		name := "plain"
		if wl != 0 {
			name = "ycsb" + wl.String()
		}
		t.Run(name+"/NewPartitioned", func(t *testing.T) {
			l := Load{Clients: 4, Ops: 200, ReadFrac: 0.3, KeySpace: 256, Theta: 0.99, Workload: wl, Verify: true, Seed: 9}
			c, err := NewPartitioned(2, partParams())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Eng.Shutdown()
			res, err := c.RunLoad(l)
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 || res.BadReads != 0 {
				t.Fatalf("errors=%d badReads=%d", res.Errors, res.BadReads)
			}
			samples, ops := expectedOps(l)
			if len(res.Samples) != samples || res.Writes+res.Reads != ops {
				t.Fatalf("%d samples, writes=%d reads=%d; want %d samples, %d ops",
					len(res.Samples), res.Writes, res.Reads, samples, ops)
			}
			if res.End <= 0 || res.Throughput() <= 0 {
				t.Fatalf("degenerate timing end=%v", res.End)
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatalf("consistency: %v", err)
			}
		})
	}
}

// expectedOps replays l's closed-loop client quotas and returns how many
// samples and how many single-key reads plus writes the run must complete:
// one each per plain op, a read and a write per read-modify-write, one
// sample but ScanLen reads per scan.
func expectedOps(l Load) (samples, ops int) {
	if l.Workload == 0 {
		return l.Ops, l.Ops
	}
	for client := 0; client < l.Clients; client++ {
		quota := l.Ops / l.Clients
		if client < l.Ops%l.Clients {
			quota++
		}
		gen := ycsbGenerator(l, client, partParams().ObjSize)
		for i := 0; i < quota; i++ {
			for _, r := range gen.Next() {
				samples++
				if r.Op == rpc.OpScan {
					ops += r.ScanLen
				} else {
					ops++
				}
			}
		}
	}
	return samples, ops
}
