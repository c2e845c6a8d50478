package bench

import (
	"fmt"
	"math"
	"time"

	kv "prdma/internal/cluster"
	"prdma/internal/fabric"
	"prdma/internal/sim"
	"prdma/internal/stats"
)

// ClusterFigures drives the sharded, replicated durable-KV cluster
// (internal/cluster) under zipfian load, crashes shard 0's primary once a
// fifth of the traffic has completed, and reports the client-visible
// impact — latency and throughput before, during, and after failover —
// alongside the per-shard balance and the failover controller's internal
// work. Zero acknowledged-write loss is asserted byte-for-byte against
// every live replica after the run.
func (o Options) ClusterFigures(shards, replicas int) []Table {
	f := o.clusterFigRun(shards, replicas)
	return []Table{f.phaseTable(), f.shardTable(), f.controlTable()}
}

// clusterFig is one completed cluster run plus its phase boundaries.
type clusterFig struct {
	p            kv.Params
	load         kv.Load
	c            *kv.PCluster
	ct           *kv.Controller
	res          *kv.LoadResult
	crashes      int
	victim       int
	crashAt      sim.Time
	resyncDoneAt sim.Time
	healthy      bool
	consistency  error
}

func (o Options) clusterFigRun(shards, replicas int) *clusterFig {
	p := kv.DefaultParams()
	p.Shards, p.Replicas = shards, replicas
	p.PoolSize = 8
	p.Objects = o.Objects
	p.Seed = o.Seed
	// Shorten the outage window relative to the run so the post-failover
	// phase collects enough samples even at Quick scale.
	p.Restart = 500 * time.Microsecond
	p.Grace = 300 * time.Microsecond
	// The run must comfortably outlast the outage (restart + resync) or the
	// post-failover phase starves: 3x the figure-wide op count, crash at 20%.
	load := kv.Load{Clients: min(max(o.Ops/5, 8), 20000), Ops: 3 * o.Ops, ReadFrac: 0.5, Verify: true, Seed: o.Seed}
	f, err := clusterRun(p, load, true, nil)
	if err != nil {
		panic(err)
	}
	return f
}

// clusterRun is the cluster run: it deploys p with one gateway on a
// one-worker engine, installs fault on the fabric if one is given, starts
// the failover controller and the load, and steps it with a cluster.Driver.
// With crash set, shard 0's primary crashes at the first barrier after a
// fifth of load's operations have completed. The run ends once the load has
// finished and the cluster is healthy again, or 200 ms after the load
// finished; then every acknowledged write is checked on every live replica.
// An error means the run could not start; how it went is in the result.
func clusterRun(p kv.Params, load kv.Load, crash bool, fault *fabric.FaultSpec) (*clusterFig, error) {
	p.Gateways = 1
	if fault != nil {
		// Adversary runs retransmit aggressively: a sub-millisecond
		// partition or drop burst must be ridden out by RC retries well
		// inside the retry budget, not kill the queue pair.
		p.NIC.RetransmitInterval = 100 * time.Microsecond
		p.NIC.RetryCount = 64
	}
	c, err := kv.NewPartitioned(1, p)
	if err != nil {
		return nil, err
	}
	defer c.Eng.Shutdown() // callers read counters and samples only; reap the parked procs
	if fault != nil {
		c.Net.SetInjector(fabric.NewInjector(*fault, p.Seed^0xfa175eed))
	}
	f := &clusterFig{p: p, load: load, c: c}
	if f.ct, err = c.StartController(); err != nil {
		return nil, err
	}
	lg, err := c.StartLoad(load)
	if err != nil {
		return nil, err
	}
	d := kv.NewDriver(c, f.ct, lg)
	never := sim.Time(math.MaxInt64)
	if crash {
		target := int64(load.Ops / 5)
		d.Run(func() bool { return lg.Done() || completed(c) >= target }, never)
		f.crashes++
		f.victim, f.crashAt = c.Groups[0].Primary, c.Now()
		d.Crash(f.crashAt, 0, f.victim)
	}
	// Every operation's retries are bounded, so the load finishes.
	d.Run(lg.Done, never)
	d.Run(d.Settled, c.Now().Add(200*time.Millisecond))
	f.healthy = c.Healthy()
	d.Drain(c.Now().Add(200 * time.Millisecond))
	f.res = lg.Collect()
	f.resyncDoneAt = f.ct.LastEvent("resync-done")
	f.consistency = c.CheckConsistency()
	return f, nil
}

// completed totals the single-key operations c's shards have served.
func completed(c *kv.PCluster) int64 {
	var n int64
	for s := range c.Groups {
		puts, gets := c.ShardOps(s)
		n += puts + gets
	}
	return n
}

func (f *clusterFig) phaseTable() Table {
	t := Table{
		Title: fmt.Sprintf("Cluster failover: %d shards x %d replicas, %d clients zipfian(0.99), crash primary s0r%d at 20%% of %d ops",
			f.p.Shards, f.p.Replicas, f.load.Clients, f.victim, f.load.Ops),
		Header: []string{"phase", "ops", "p50 (us)", "p99 (us)", "KOPS"},
		Notes:  "failover = crash..resync-done: shard-0 ops ride retry loops until the survivors serve the quorum, the other shards are untouched; post returns to baseline with the victim readmitted",
	}
	// Every sample falls in exactly one phase: [0, crash), [crash,
	// resync-done), [resync-done, End]. When the load drains before the
	// victim is readmitted, the post phase is empty and the failover phase
	// runs to the end of the load.
	end := f.res.End
	resyncEnd := f.resyncDoneAt
	if resyncEnd == 0 || resyncEnd > end {
		resyncEnd = end
	}
	phases := []struct {
		name     string
		from, to sim.Time
	}{
		{"pre-failover", 0, f.crashAt},
		{"failover", f.crashAt, resyncEnd},
		{"post-failover", resyncEnd, end},
	}
	lats := make([]*stats.Latency, len(phases))
	for i := range lats {
		lats[i] = stats.NewLatency(len(f.res.Samples))
	}
	for _, s := range f.res.Samples {
		switch {
		case s.At < f.crashAt:
			lats[0].Add(s.Dur)
		case s.At < resyncEnd:
			lats[1].Add(s.Dur)
		default:
			lats[2].Add(s.Dur)
		}
	}
	for i, ph := range phases {
		lat := lats[i]
		row := []string{ph.name, fmt.Sprintf("%d", lat.Count()), "-", "-", "-"}
		if lat.Count() > 0 {
			row[2] = fmtUS(lat.Percentile(50))
			row[3] = fmtUS(lat.Percentile(99))
			row[4] = fmt.Sprintf("%.1f", stats.Throughput{Ops: lat.Count(), Elapsed: ph.to.Sub(ph.from)}.KOPS())
		}
		t.Rows = append(t.Rows, row)
	}
	total := stats.NewLatency(len(f.res.Samples))
	for _, s := range f.res.Samples {
		total.Add(s.Dur)
	}
	t.Rows = append(t.Rows, []string{
		"whole run",
		fmt.Sprintf("%d", total.Count()),
		fmtUS(total.Percentile(50)),
		fmtUS(total.Percentile(99)),
		fmt.Sprintf("%.1f", stats.Throughput{Ops: total.Count(), Elapsed: f.res.End.Duration()}.KOPS()),
	})
	return t
}

func (f *clusterFig) shardTable() Table {
	t := Table{
		Title:  "Cluster per-shard load and latency",
		Header: []string{"shard", "puts", "gets", "retries", "p50 (us)", "p99 (us)"},
		Notes:  "the consistent-hash ring spreads the zipfian keyspace; only the crashed shard accumulates retries",
	}
	for i := range f.c.Groups {
		lat := stats.NewLatency(len(f.res.Samples) / len(f.c.Groups))
		for _, s := range f.res.Samples {
			if s.Shard == i {
				lat.Add(s.Dur)
			}
		}
		p50, p99 := "-", "-"
		if lat.Count() > 0 {
			p50, p99 = fmtUS(lat.Percentile(50)), fmtUS(lat.Percentile(99))
		}
		puts, gets := f.c.ShardOps(i)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", puts),
			fmt.Sprintf("%d", gets),
			fmt.Sprintf("%d", f.c.Groups[i].Retries),
			p50, p99,
		})
	}
	return t
}

func (f *clusterFig) controlTable() Table {
	var failovers, promotions, resyncs, replayed, shipped int64
	var detect, resyncWall time.Duration
	for _, sh := range f.c.Groups {
		failovers += sh.Failovers
		promotions += sh.Promotions
		resyncs += sh.Resyncs
		replayed += sh.Replayed
		shipped += sh.Shipped
		detect += sh.DetectLag
		resyncWall += sh.ResyncTime
	}
	meanDetect := time.Duration(0)
	if failovers > 0 {
		meanDetect = detect / time.Duration(failovers)
	}
	lost := "0 (every acked write byte-identical on all live replicas)"
	if f.consistency != nil {
		lost = "LOST: " + f.consistency.Error()
	}
	health := "readmitted, full health"
	if !f.healthy {
		health = "NOT healthy at horizon"
	}
	t := Table{
		Title:  "Cluster failover controller internals",
		Header: []string{"metric", "value"},
		Notes:  "detect lag is crash→MarkDown; resync ships the deduplicated acked-write log, then readmits behind the pool barrier so no in-flight write is missed",
	}
	t.Rows = [][]string{
		{"crash at (us into run)", fmtUS(f.crashAt.Duration())},
		{"failovers detected", fmt.Sprintf("%d", failovers)},
		{"mean detect lag (us)", fmtUS(meanDetect)},
		{"promotions", fmt.Sprintf("%d", promotions)},
		{"resyncs completed", fmt.Sprintf("%d", resyncs)},
		{"resync wall (us)", fmtUS(resyncWall)},
		{"log entries replayed", fmt.Sprintf("%d", replayed)},
		{"images shipped", fmt.Sprintf("%d", shipped)},
		{"pm-full backpressure stalls", fmt.Sprintf("%d", f.c.PMFull())},
		{"op errors", fmt.Sprintf("%d", f.res.Errors)},
		{"bad reads", fmt.Sprintf("%d", f.res.BadReads)},
		{"acked writes lost", lost},
		{"victim status", health},
	}
	return t
}
