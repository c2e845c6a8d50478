// The cluster target: the crash-point sweep applied to a sharded,
// replicated deployment (internal/cluster). Each point replays the same
// cluster workload, crashes one replica at a chosen coordinate — landing
// anywhere in the issue/failover/resync state space — optionally crashes a
// second replica of the same shard while the first resync is in flight,
// lets the failover controller run to completion, and asserts the cluster
// contract:
//
//  1. No acknowledged write is lost: every Put that returned success is
//     present, untorn, on every live replica of its shard.
//  2. Replicas converge byte-identically: live replicas of a shard hold
//     identical bytes for every acknowledged key (single-writer keys make
//     apply order deterministic across replicas).
//  3. Liveness: the workload finishes, no operation fails permanently, and
//     the cluster returns to full health (victim readmitted) before the
//     settle horizon.
//  4. Read sanity: every read during the run returned a well-formed
//     payload no newer than the issued history.
//
// The crash coordinate depends on the deployment. On one kernel (Workers ==
// 0, cluster.New) it is "after event i". Under parallel execution no global
// event index is stable — worker threads interleave events inside a window
// — but window barriers are: every boundary is a global quiesce point, and
// with identical inputs the i-th window covers the same events in every run
// at any worker count. So with Workers ≥ 1 (cluster.NewPartitioned) the
// sweep crashes "at window i" instead, injecting the crash at that barrier
// inside a serialized engine span. The driver holds the Serialize token —
// and with it the single-kernel-equivalent global event order the failover
// choreography needs — from the crash until the cluster is healthy again,
// firing restarts and second crashes at the first barrier past their due
// time. A violation's minimal repro is its (seed, coordinate) pair, and a
// window found at Workers=8 replays at Workers=1.
package crashcheck

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"prdma/internal/cluster"
	"prdma/internal/fabric"
	"prdma/internal/sim"
	"prdma/internal/stats"
	"prdma/internal/ycsb"
)

// ClusterConfig is the sharded replicated KV cluster target.
type ClusterConfig struct {
	// Seed drives the workload, the placement ring, and point selection.
	Seed int64
	// Points is how many crash points to sweep.
	Points int
	// SecondCrashEvery arms a second crash — a different replica of the
	// same shard, timed to land during the first resync window — at every
	// n-th point. 0 disables.
	SecondCrashEvery int
	// Ops and Clients size the closed-loop verified workload.
	Ops, Clients int
	// Shards and Replicas shape the deployment (one gateway: the failover
	// controller requires it).
	Shards, Replicas int
	// ObjSize is the object size in bytes (≥ 16 for versioned payloads).
	ObjSize int
	// Workers selects the crash coordinate: 0 crashes at an event index on
	// the one-kernel deployment; N ≥ 1 crashes at a window index on the
	// partitioned deployment run by an N-worker engine. Window indices are
	// worker-count-stable, so a violation found at Workers=8 replays at
	// Workers=1.
	Workers int

	// Fault, when set, installs a deterministic fabric adversary (the same
	// spec and seed for the reference run and every crash point). Fault
	// runs shorten the RC retransmit interval and raise the retry budget
	// so sub-millisecond partitions are ridden out by retransmission
	// instead of killing queue pairs. Workers == 0 only.
	Fault *fabric.FaultSpec
	// Workload, when set, drives the load from a YCSB core workload
	// (ycsb.A..ycsb.F) instead of the default 70/30 mix.
	Workload ycsb.Workload
	// Mutant seeds a known bug class for the detection check: "ackbug"
	// (flush ACK before the durability horizon) or "resurrect" (stale
	// version guard off + resync ships images before replaying logs).
	Mutant string
}

// DefaultClusterConfig returns a CI-sized cluster sweep: a 2-shard,
// 3-replica quorum cluster, small objects, enough operations that crashes
// land across issue, failover, and resync phases.
func DefaultClusterConfig(seed int64) ClusterConfig {
	return ClusterConfig{
		Seed:             seed,
		Points:           60,
		SecondCrashEvery: 6,
		Ops:              240,
		Clients:          6,
		Shards:           2,
		Replicas:         3,
		ObjSize:          64,
	}
}

// RefStats measures the cluster sweep's crash-free reference run: the
// cell's row of the fault × workload matrix.
type RefStats struct {
	Ops          int
	KOPS         float64
	P50US, P99US float64
	// Resends is total RC retransmissions; FaultDrops the messages the
	// fault injector dropped; Duplicated/Reordered the adversary's copies
	// and holds; StaleDrops the version-guarded writes the stores
	// rejected; Retries the cluster-level op retries.
	Resends, FaultDrops, Duplicated, Reordered, StaleDrops, Retries int64
}

// String renders the row as the cluster sweep's summary line prints it.
func (s RefStats) String() string {
	return fmt.Sprintf("ops=%-4d kops=%-6.1f p50us=%-6.1f p99us=%-6.1f resends=%-5d drops=%-4d dup=%-4d reord=%-4d stale=%-4d retries=%-4d",
		s.Ops, s.KOPS, s.P50US, s.P99US, s.Resends, s.FaultDrops, s.Duplicated, s.Reordered, s.StaleDrops, s.Retries)
}

func (cfg ClusterConfig) plan() plan {
	// A matrix cell names its fault and workload: "cluster/partition/A",
	// "cluster/none/F" (no adversary), "cluster/gray/mix" (default load).
	name := "cluster"
	if cfg.Fault != nil || cfg.Workload != 0 {
		fault, wl := "none", "mix"
		if cfg.Fault != nil {
			fault = cfg.Fault.Name
		}
		if cfg.Workload != 0 {
			wl = cfg.Workload.String()
		}
		name += "/" + fault + "/" + wl
	}
	// The floor skips the setup transient; the rng salt keeps the two
	// coordinates' point sets independent.
	pl := plan{
		name: name, coord: "event", seed: cfg.Seed,
		points: cfg.Points, second: cfg.SecondCrashEvery,
		salt: 0x7E57C0DE, floor: 50, mutant: cfg.Mutant, mutants: []string{"ackbug", "resurrect"},
	}
	if cfg.Workers > 0 {
		pl.coord, pl.salt, pl.floor = "window", 0x9A27170, 20
	}
	return pl
}

func (cfg ClusterConfig) deploy(bool) (deployment, error) {
	if cfg.Workers > 0 && cfg.Fault != nil {
		return nil, errors.New("crashcheck: Fault needs the event coordinate (Workers == 0)")
	}
	return newClusterRun(cfg)
}

// clusterRun is one deployment plus its in-flight load. With Workers == 0
// k is the one kernel and a proc waits out the load; otherwise the sweep
// driver steps the engine.
type clusterRun struct {
	c    *cluster.PCluster
	k    *sim.Kernel
	ct   *cluster.Controller
	load *cluster.LoadRun
	// loadEnd is the crash coordinate at which the load completed.
	loadEnd uint64

	// auditMsgs collects §4.2 ack-contract breaks observed by the
	// post-replay audit (see auditReplay).
	auditMsgs []string
}

// newClusterRun builds the deployment for cfg's coordinate and starts the
// controller and the load.
func newClusterRun(cfg ClusterConfig) (*clusterRun, error) {
	p := cluster.DefaultParams()
	p.Shards = cfg.Shards
	p.Replicas = cfg.Replicas
	p.Gateways = 1
	p.PoolSize = 2
	p.Objects = 128
	p.ObjSize = cfg.ObjSize
	p.Seed = uint64(cfg.Seed) | 1
	if cfg.Fault != nil {
		// Adversary runs retransmit aggressively: a sub-millisecond
		// partition or drop burst must be ridden out by RC retries well
		// inside the retry budget, not kill the queue pair.
		p.NIC.RetransmitInterval = 100 * time.Microsecond
		p.NIC.RetryCount = 64
	}
	switch cfg.Mutant {
	case "ackbug":
		// The premature-ack knob only exists on the native flush path; the
		// read-after-write emulation has no flush ACK to misplace.
		p.NIC.EmulateFlush = false
		p.NIC.AckBeforeDurable = true
	case "resurrect":
		p.MutantResurrect = true
	}
	r := &clusterRun{}
	var err error
	if cfg.Workers == 0 {
		r.k = sim.New()
		r.c, err = cluster.New(r.k, p)
	} else {
		r.c, err = cluster.NewPartitioned(cfg.Workers, p)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Fault != nil {
		r.c.Net.SetInjector(fabric.NewInjector(*cfg.Fault, (uint64(cfg.Seed)|1)^0xfa175eed))
	}
	r.c.EnableAckAudit()
	if r.ct, err = r.c.StartController(); err != nil {
		return nil, err
	}
	r.ct.AuditReplay = r.auditReplay
	load := cluster.Load{
		Clients:  cfg.Clients,
		Ops:      cfg.Ops,
		ReadFrac: 0.3,
		Workload: cfg.Workload,
		Verify:   true,
		Seed:     uint64(cfg.Seed) | 1,
	}
	if r.load, err = r.c.StartLoad(load); err != nil {
		return nil, err
	}
	if r.k != nil {
		r.k.Go("cluster-load", func(mp *sim.Proc) {
			r.load.Wait(mp)
			r.loadEnd = r.k.Fired()
		})
	}
	return r, nil
}

func (r *clusterRun) shutdown() {
	if r.k != nil {
		r.k.Shutdown()
	} else {
		r.c.Eng.Shutdown()
	}
}

// horizon bounds a windowed run's settle phase from t. The controller polls
// forever, so the engine never quiesces on its own; sim time bounds the run.
func horizon(t sim.Time) sim.Time { return t.Add(120 * time.Millisecond) }

// reference runs the crash-free load to completion (or the horizon); the
// coordinate space ends where the load finished.
func (r *clusterRun) reference(res *Result) sim.Time {
	if r.k != nil {
		r.settle()
	} else {
		end := horizon(0)
		for !(r.load.Done() && r.c.Healthy()) && r.c.Now() < end {
			if r.c.Eng.RunWindows(16) == 0 {
				break
			}
			if r.loadEnd == 0 && r.load.Done() {
				r.loadEnd = r.c.Eng.Windows()
			}
		}
		r.drain(end)
	}
	res.Events = r.loadEnd
	res.Ref = r.refStats()
	return r.c.Now()
}

// crash replays the load up to pt, crashes the coordinate's victim (and,
// at second-crash points, a second replica of the same shard while the
// first victim's recovery/resync is typically in flight), and settles. It
// returns the crash time.
func (r *clusterRun) crash(pt Point, _ time.Duration) sim.Time {
	// The victim cycles deterministically through every (shard, replica)
	// pair as the coordinate advances.
	shards, replicas := r.c.P.Shards, r.c.P.Replicas
	s := int(pt.Event) % shards
	victim := int(pt.Event/uint64(shards)) % replicas
	second := (victim + 1) % replicas
	secondAfter := r.c.P.Restart + time.Duration(pt.Event%40)*50*time.Microsecond

	if r.k != nil {
		r.k.RunEvents(pt.Event)
		at := r.k.Now()
		r.crashNow(s, victim)
		if pt.SecondCrash {
			r.k.AfterFunc(secondAfter, func() { r.crashNow(s, second) })
		}
		r.settle()
		return at
	}

	r.stepTo(pt.Event)
	at := r.c.Now()
	// The driver holds the Serialize token across the whole crash/recovery
	// span: every post-crash window runs single-kernel equivalent, which is
	// what legalizes the controller's cross-partition reestablish/quiesce/
	// drain choreography.
	r.c.Eng.Serialize()
	pend := []injection{{due: at, crash: true, s: s, r: victim}}
	if pt.SecondCrash {
		pend = append(pend, injection{due: at.Add(secondAfter), crash: true, s: s, r: second})
	}
	end := horizon(at)
	r.settleWindows(pend, end)
	r.drain(end)
	r.c.Eng.Unserialize()
	return at
}

// crashNow crashes a one-kernel replica and arms its restart P.Restart
// later.
func (r *clusterRun) crashNow(s, ri int) {
	if !r.c.Groups[s].Replicas[ri].Alive() {
		return
	}
	r.c.CrashReplica(s, ri)
	r.k.AfterFunc(r.c.P.Restart, func() { r.c.RestartReplica(s, ri) })
}

// settle advances a one-kernel run until the load completes and the
// cluster is healthy again (or the bounded horizon passes), then gives the
// engines a final apply window.
func (r *clusterRun) settle() {
	for i := 0; i < 60 && !(r.load.Done() && r.c.Healthy()); i++ {
		r.k.RunUntil(r.k.Now().Add(2 * time.Millisecond))
	}
	r.k.RunUntil(r.k.Now().Add(3 * time.Millisecond))
}

// stepTo advances the engine to exactly window w (a no-op if already past).
func (r *clusterRun) stepTo(w uint64) {
	for r.c.Eng.Windows() < w {
		n := int(w - r.c.Eng.Windows())
		if n > 4096 {
			n = 4096
		}
		if r.c.Eng.RunWindows(n) == 0 {
			return // quiescent before w: crash lands on a drained engine
		}
	}
}

// injection is a driver-side pending intervention, fired at the first window
// barrier at or past its due time. Crashes enqueue the victim's restart
// P.Restart later — only barriers may flip replica liveness on an engine.
type injection struct {
	due   sim.Time
	crash bool
	s, r  int
}

// settleWindows fires due injections and steps windows until every
// injection has fired, the load has finished, and the cluster is healthy —
// or the horizon passes. Returns at a window barrier.
func (r *clusterRun) settleWindows(pend []injection, end sim.Time) {
	for {
		now := r.c.Now()
		for i := 0; i < len(pend); {
			inj := pend[i]
			if inj.due > now {
				i++
				continue
			}
			pend = append(pend[:i], pend[i+1:]...)
			if inj.crash {
				r.c.CrashReplica(inj.s, inj.r)
				pend = append(pend, injection{due: now.Add(r.c.P.Restart), s: inj.s, r: inj.r})
			} else {
				r.c.RestartReplica(inj.s, inj.r)
			}
			i = 0
		}
		if len(pend) == 0 && r.load.Done() && r.c.Healthy() {
			return
		}
		if now >= end {
			return
		}
		if r.c.Eng.RunWindows(16) == 0 {
			return
		}
	}
}

// drain stops the controller and runs the engine quiescent (bounded, in case
// an auxiliary proc is still polling).
func (r *clusterRun) drain(end sim.Time) {
	r.ct.Stop()
	for r.c.Now() < end && r.c.Eng.RunWindows(256) != 0 {
	}
}

// auditReplay holds a rejoining replica to its §4.2 ack contract at the
// one instant its durable state is exactly what it persisted itself:
// after its redo-log backlogs replayed and applied, before any catch-up
// image ships. Every slot version the replica durably acknowledged must
// be resident at that version or newer — a flush ACK that replay cannot
// honor was a durability lie (the ack-before-durable bug class).
func (r *clusterRun) auditReplay(p *sim.Proc, grp *cluster.PGroup, ri int) {
	acked := grp.AckedVersions(ri)
	if len(acked) == 0 {
		return
	}
	rep := grp.Replicas[ri]
	slots := make([]uint64, 0, len(acked))
	for slot := range acked {
		slots = append(slots, slot)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	buf := make([]byte, 12)
	for _, slot := range slots {
		want := acked[slot]
		if !rep.Store.Has(slot) {
			r.auditMsgs = append(r.auditMsgs, fmt.Sprintf(
				"ack audit: shard %d replica %d slot %d: durably acked ver %d but replay restored nothing",
				grp.ID, ri, slot, want))
			continue
		}
		got := binary.LittleEndian.Uint32(rep.Host.PM.ReadBytesInto(rep.Store.Addr(slot), buf)[8:12])
		if got < want {
			r.auditMsgs = append(r.auditMsgs, fmt.Sprintf(
				"ack audit: shard %d replica %d slot %d: durably acked ver %d but replay restored ver %d",
				grp.ID, ri, slot, want, got))
		}
	}
}

// refStats extracts the performance row from a settled crash-free run.
func (r *clusterRun) refStats() RefStats {
	st := RefStats{
		Resends:    r.c.Retransmits(),
		StaleDrops: r.c.StaleDrops(),
	}
	net := r.c.Net
	st.FaultDrops = net.DroppedFault
	st.Duplicated = net.Duplicated
	st.Reordered = net.Reordered
	for _, grp := range r.c.Groups {
		st.Retries += grp.Retries
	}
	res := r.load.Collect()
	if len(res.Samples) == 0 {
		return st
	}
	st.Ops = len(res.Samples)
	lat := stats.NewLatency(st.Ops)
	for _, sm := range res.Samples {
		lat.Add(sm.Dur)
	}
	st.KOPS = stats.Throughput{Ops: st.Ops, Elapsed: res.End.Duration()}.KOPS()
	st.P50US = float64(lat.Percentile(50)) / float64(time.Microsecond)
	st.P99US = float64(lat.Percentile(99)) / float64(time.Microsecond)
	return st
}

// verify checks the cluster contract after the run settled.
func (r *clusterRun) verify() []string {
	var out []string
	bad := func(format string, a ...any) {
		out = append(out, fmt.Sprintf(format, a...))
	}
	out = append(out, r.auditMsgs...)
	if !r.load.Done() {
		bad("workload never finished before the settle horizon")
		return out
	}
	res := r.load.Collect()
	if res.Errors != 0 {
		bad("%d operations failed permanently", res.Errors)
	}
	if res.BadReads != 0 {
		bad("%d reads returned malformed or future payloads", res.BadReads)
	}
	if !r.c.Healthy() {
		bad("cluster not healthy at horizon (replica still down or resyncing)")
	}
	// Invariants 1+2: acked writes present and byte-identical on every
	// live replica.
	if err := r.c.CheckConsistency(); err != nil {
		bad("consistency: %v", err)
	}
	return out
}

func (r *clusterRun) tally(res *Result) {
	for _, grp := range r.c.Groups {
		res.Failovers += grp.Failovers
		res.Resyncs += grp.Resyncs
		res.Replayed += grp.Replayed
		res.Shipped += grp.Shipped
	}
	res.PMFull += r.c.PMFull()
}
