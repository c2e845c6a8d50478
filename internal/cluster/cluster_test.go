package cluster

import (
	"math"
	"strings"
	"testing"
	"time"

	"prdma/internal/sim"
)

// quickParams is a one-gateway deployment, the shape the failover
// controller needs.
func quickParams() Params {
	p := DefaultParams()
	p.Shards = 2
	p.Replicas = 3
	p.PoolSize = 2
	p.Gateways = 1
	p.Objects = 256
	p.ObjSize = 64
	return p
}

// newQuick builds quickParams on a one-worker engine.
func newQuick(t *testing.T) *PCluster {
	t.Helper()
	c, err := NewPartitioned(1, quickParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Eng.Shutdown)
	return c
}

// runWithController drives l under a running failover controller: the
// driver crashes shard 0's primary at crashAt (0: never), runs the load out,
// waits up to 50 ms for full health, and drains the engine.
func runWithController(t *testing.T, c *PCluster, l Load, crashAt time.Duration) (res *LoadResult, ct *Controller, healthy bool) {
	t.Helper()
	ct, err := c.StartController()
	if err != nil {
		t.Fatal(err)
	}
	load, err := c.StartLoad(l)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(c, ct, load)
	if crashAt > 0 {
		d.Crash(sim.Time(crashAt), 0, c.Groups[0].Primary)
	}
	d.Run(load.Done, math.MaxInt64)
	d.Run(d.Settled, c.Now().Add(50*time.Millisecond))
	healthy = c.Healthy()
	d.Drain(c.Now().Add(50 * time.Millisecond))
	return load.Collect(), ct, healthy
}

// TestClusterPutGetConverges drives a healthy cluster and checks every
// acknowledged write is byte-identical on all replicas once settled.
func TestClusterPutGetConverges(t *testing.T) {
	c := newQuick(t)
	res, _, _ := runWithController(t, c, Load{Clients: 8, Ops: 400, ReadFrac: 0.5, Verify: true, Seed: 3}, 0)
	if len(res.Samples) != 400 {
		t.Fatalf("samples: got %d, want 400", len(res.Samples))
	}
	if res.Errors != 0 || res.BadReads != 0 {
		t.Fatalf("errors=%d badReads=%d", res.Errors, res.BadReads)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if res.Writes == 0 || res.Reads == 0 {
		t.Fatalf("degenerate mix: %d writes %d reads", res.Writes, res.Reads)
	}
}

// TestClusterOpenLoopVerified drives a verified open loop through one
// gateway under a controller. The arrival rate overloads the workers, so
// several of them serve the same logical client at once: every read must
// still verify and the replicas must converge.
func TestClusterOpenLoopVerified(t *testing.T) {
	c := newQuick(t)
	l := Load{Clients: 8, Ops: 600, ReadFrac: 0.3, OpenLoop: true, Rate: 2e6, Verify: true, Seed: 13}
	res, _, healthy := runWithController(t, c, l, 0)
	if !healthy {
		t.Fatal("cluster not healthy after the load")
	}
	if len(res.Samples) != l.Ops {
		t.Fatalf("%d samples, want %d", len(res.Samples), l.Ops)
	}
	if res.Errors != 0 || res.BadReads != 0 {
		t.Fatalf("errors=%d badReads=%d", res.Errors, res.BadReads)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterFailover crashes a shard primary mid-load: the controller must
// detect it, promote a survivor, resync the rejoiner, and no acknowledged
// write may be lost or diverge.
func TestClusterFailover(t *testing.T) {
	c := newQuick(t)
	// Crash shard 0's primary once traffic is flowing.
	res, ct, healthy := runWithController(t, c, Load{Clients: 8, Ops: 1200, ReadFrac: 0.5, Verify: true, Seed: 7}, 500*time.Microsecond)
	if !healthy {
		t.Error("cluster never became healthy again")
	}
	if res.Errors != 0 {
		t.Fatalf("%d operations failed permanently", res.Errors)
	}
	if res.BadReads != 0 {
		t.Fatalf("%d reads returned invalid payloads", res.BadReads)
	}
	sh := c.Groups[0]
	if sh.Failovers == 0 {
		t.Fatal("controller never detected the crash")
	}
	if sh.Promotions == 0 {
		t.Fatal("no primary promotion")
	}
	if sh.Resyncs == 0 {
		t.Fatal("replica never resynchronized")
	}
	if sh.Replicas[0].Restarts+sh.Replicas[1].Restarts+sh.Replicas[2].Restarts == 0 {
		t.Fatal("victim never restarted")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := ct.LastEvent("resync-done"); got == 0 {
		t.Fatal("no resync-done event recorded")
	}
}

// TestClusterOpenLoop exercises the open-loop generator: latency includes
// queueing delay, so with a deliberately overloaded arrival rate the mean
// open-loop latency must exceed the closed-loop mean on the same cluster.
func TestClusterOpenLoop(t *testing.T) {
	run := func(open bool) (time.Duration, int) {
		c := newQuick(t)
		l := Load{Clients: 4, Ops: 300, ReadFrac: 0.5, Seed: 11}
		if open {
			l.OpenLoop = true
			l.Rate = 2e6 // well past 4 workers' capacity: queueing builds
		}
		res, err := c.RunLoad(l)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Samples) != 300 {
			t.Fatal("missing samples")
		}
		var sum time.Duration
		for _, s := range res.Samples {
			sum += s.Dur
		}
		return sum / time.Duration(len(res.Samples)), len(res.Samples)
	}
	closedMean, _ := run(false)
	openMean, _ := run(true)
	if openMean <= closedMean {
		t.Fatalf("overloaded open-loop mean %v should exceed closed-loop %v (queueing)", openMean, closedMean)
	}
}

// TestClusterRouting pins routing determinism: the same key always lands on
// the same shard, and the load spreads across all shards.
func TestClusterRouting(t *testing.T) {
	c := newQuick(t)
	seen := make(map[int]int)
	for key := uint64(0); key < 512; key++ {
		s := c.Ring.Shard(key)
		if s2 := c.Ring.Shard(key); s2 != s {
			t.Fatalf("key %d routed to %d then %d", key, s, s2)
		}
		seen[s]++
	}
	if len(seen) != c.P.Shards {
		t.Fatalf("only %d of %d shards received keys", len(seen), c.P.Shards)
	}
}

// flipAckedByte corrupts one byte of gateway 0's lowest acknowledged key of
// shard 0 in replica r's PM, so only that replica diverges from the record.
func flipAckedByte(t *testing.T, c *PCluster, r int) {
	t.Helper()
	keys := c.sortedWroteKeys(c.Groups[0])
	if len(keys) == 0 {
		t.Fatal("shard 0 has no acknowledged write to corrupt")
	}
	rep := c.Groups[0].Replicas[r]
	addr := rep.Store.Addr(keyIndex(keys[0], c.P.Objects))
	b := rep.Host.PM.ReadBytes(addr, 1)
	rep.Host.PM.WriteRaw(addr, []byte{b[0] ^ 0xff})
}

// TestCheckConsistencyCatchesDivergence pins the negative path of the
// consistency checker with one gateway and with two: one flipped byte of an
// acked slot in a live replica's PM must be reported as a divergence.
func TestCheckConsistencyCatchesDivergence(t *testing.T) {
	l := Load{Clients: 4, Ops: 200, ReadFrac: 0.3, Verify: true, Seed: 5}
	check := func(t *testing.T, c *PCluster) {
		t.Helper()
		if err := c.CheckConsistency(); err != nil {
			t.Fatalf("clean run reported %v", err)
		}
		flipAckedByte(t, c, 1)
		err := c.CheckConsistency()
		if err == nil || !strings.Contains(err.Error(), "diverged") {
			t.Fatalf("corrupted replica: got %v, want a divergence", err)
		}
	}
	// The "New" row keeps the name of the one-gateway shape the failover
	// drills deploy; "NewPartitioned" runs two gateways.
	t.Run("New", func(t *testing.T) {
		c := newQuick(t)
		if _, err := c.RunLoad(l); err != nil {
			t.Fatal(err)
		}
		check(t, c)
	})
	t.Run("NewPartitioned", func(t *testing.T) {
		c, err := NewPartitioned(2, partParams())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunLoad(l); err != nil {
			t.Fatal(err)
		}
		check(t, c)
		c.Eng.Shutdown()
	})
}
