package cluster

import (
	"errors"
	"time"

	"prdma/internal/replicate"
	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// Event is one failover milestone, timestamped for the figure driver's
// phase bucketing.
type Event struct {
	At             sim.Time
	Kind           string // detect | promote | resync-start | resync-done | resync-abort
	Shard, Replica int
}

// Controller is the membership/failover controller: a sim-timer-driven
// failure detector plus the promotion and resync choreography, running as a
// proc on the (single) gateway kernel.
//
// Detection: the controller polls every replica's liveness each CheckEvery
// (a heartbeat stand-in). On a crash it marks the replica down on every
// pooled client — writes shrink to the live set, reads divert via the
// staleness guard — and, if the victim was the shard primary, promotes the
// next live in-sync replica once that replica's redo log has fully
// replayed (engine queue drained).
//
// Resync: when the victim restarts, the controller re-establishes every
// pooled connection to it (replaying each connection's durable redo-log
// backlog server-side, with no client re-transmission — the paper's §4.2
// recovery), then ships the deduplicated acknowledged-write log for the
// down window (latest image per key, completion time ≥ pendingSince−Grace)
// over its own dedicated connection. Shipping runs in rounds while traffic
// continues; the final round runs with every pooled client held, so no
// write can be in flight when the replica is readmitted — MarkUp therefore
// never misses an acknowledged write.
//
// Topology restriction: a single gateway. Every client-side structure the
// controller touches — the connection pool, the acknowledged-write record,
// the membership marks — must live on one kernel.
//
// Serialization contract: crashes are injected by the Driver at window
// barriers inside a serialized engine span (CrashReplica), and the Driver
// holds the Serialize token until the cluster reports Healthy with nothing
// left to inject.
// Every controller action that reaches across partitions outside the
// lookahead discipline — re-establishing connections (server-side log
// recovery driven from a gateway proc), polling a victim's engine queue
// depth, the readmission barrier — therefore executes inside serialized
// windows, where the engine provides the same global event order a single
// kernel would. The crash-free detector poll only reads replica liveness,
// which changes exclusively at barriers, so parallel windows never observe
// a torn update.
type Controller struct {
	C       *PCluster
	Events  []Event
	stopped bool

	// AuditReplay, when set, runs during resync after the rejoining
	// replica's redo-log backlogs have replayed and applied but before any
	// catch-up image ships — the one instant where the replica's durable
	// state reflects exactly what it persisted on its own. The crash-point
	// sweep audits the §4.2 per-replica ack contract there.
	AuditReplay func(p *sim.Proc, grp *PGroup, r int)
}

// StartController begins failure detection on a dedicated gateway proc.
// The deployment needs a single gateway (Gateways == 1 — only then are the
// controller connections built).
func (c *PCluster) StartController() (*Controller, error) {
	if len(c.Gateways) != 1 || c.Groups[0].ctl == nil {
		return nil, errors.New("cluster: failover controller needs a single gateway")
	}
	ct := &Controller{C: c}
	c.Gateways[0].K.Go("failover-ctl", ct.loop)
	return ct, nil
}

// Stop ends detection after the current poll; outstanding resyncs finish.
func (ct *Controller) Stop() { ct.stopped = true }

func (ct *Controller) event(at sim.Time, kind string, s, r int) {
	ct.Events = append(ct.Events, Event{At: at, Kind: kind, Shard: s, Replica: r})
}

// LastEvent returns the time of the most recent event of the given kind
// (zero if none).
func (ct *Controller) LastEvent(kind string) sim.Time {
	var at sim.Time
	for _, e := range ct.Events {
		if e.Kind == kind {
			at = e.At
		}
	}
	return at
}

func (ct *Controller) loop(p *sim.Proc) {
	for !ct.stopped {
		for _, grp := range ct.C.Groups {
			for r, rep := range grp.Replicas {
				switch {
				case !rep.alive && !grp.ctl.Down(r):
					ct.detect(p, grp, r)
				case rep.alive && grp.ctl.Down(r) && !grp.resyncing[r]:
					grp.resyncing[r] = true
					g, rr := grp, r
					p.K.Go("resync", func(rp *sim.Proc) { ct.resync(rp, g, rr) })
				}
			}
		}
		p.Sleep(ct.C.P.CheckEvery)
	}
}

// detect marks the replica down across every client and promotes a new
// primary if the victim held the role. No yields before the marks: the
// membership flip is atomic under the cooperative scheduler.
func (ct *Controller) detect(p *sim.Proc, grp *PGroup, r int) {
	now := p.Now()
	if grp.pendingSince[r] == 0 {
		grp.pendingSince[r] = now
	}
	grp.ctl.MarkDown(r)
	for _, cl := range ct.C.Gateways[0].clients[grp.ID] {
		cl.MarkDown(r)
	}
	grp.Failovers++
	grp.DetectLag += now.Sub(grp.Replicas[r].crashedAt)
	ct.event(now, "detect", grp.ID, r)
	if grp.Primary == r {
		ct.promote(p.K, grp, r)
	}
}

// promote elects the next live, in-sync replica as the group primary and
// records the promotion once the new primary's redo log has replayed
// (engine queue drained — its backlog is applied, so it serves the full
// acknowledged prefix).
func (ct *Controller) promote(k *sim.Kernel, grp *PGroup, down int) {
	n := len(grp.Replicas)
	next := -1
	for off := 1; off < n; off++ {
		i := (down + off) % n
		if grp.Replicas[i].alive && !grp.ctl.Down(i) {
			next = i
			break
		}
	}
	if next < 0 {
		return // no live replica; the shard is unavailable until a restart
	}
	grp.Primary = next
	grp.Promotions++
	k.Go("promote-drain", func(p *sim.Proc) {
		rep := grp.Replicas[next]
		for rep.alive && rep.Engine.QueueDepth() > 0 {
			p.Sleep(20 * time.Microsecond)
		}
		ct.event(p.Now(), "promote", grp.ID, next)
	})
}

// resync readmits a restarted replica (see Controller doc). It aborts —
// keeping the replica marked down and its pendingSince floor — if the
// replica crashes again mid-resync; the detector loop restarts the
// procedure after the next restart.
func (ct *Controller) resync(p *sim.Proc, grp *PGroup, r int) {
	defer func() { grp.resyncing[r] = false }()
	// One resync at a time per shard: the readmission barrier below holds
	// the whole connection pool.
	for grp.resyncBusy {
		p.Sleep(50 * time.Microsecond)
	}
	grp.resyncBusy = true
	defer func() { grp.resyncBusy = false }()

	gw := ct.C.Gateways[0]
	pool := gw.pools[grp.ID]
	clients := gw.clients[grp.ID]
	rep := grp.Replicas[r]
	start := p.Now()
	ct.event(start, "resync-start", grp.ID, r)
	abort := func() { ct.event(p.Now(), "resync-abort", grp.ID, r) }

	// hold collects the whole connection pool behind the quiesce gate (new
	// operations divert at acquire, so this completes in bounded time under
	// load); release readmits it.
	held := make([]*replicate.Client, 0, len(clients))
	hold := func() {
		grp.quiesce = true
		held = held[:0]
		for range clients {
			held = append(held, pool.Pop(p))
		}
	}
	release := func() {
		for _, cl := range held {
			pool.Push(cl)
		}
		grp.quiesce = false
	}

	// 1. Rebuild every connection to the victim — the controller's and the
	// whole pool's — and replay their durable redo-log backlogs. Replayed
	// entries can be OLDER versions of keys the down window later
	// overwrote, so every replay must land in the victim's engine before
	// the first shipped image: the latest acknowledged image is then always
	// the last write to apply.
	shipFloor := grp.pendingSince[r].Add(-ct.C.P.Grace)
	shippedAt := make(map[uint64]sim.Time, len(gw.wrote[grp.ID]))
	if ct.C.P.MutantResurrect {
		// Seeded bug (see Params.MutantResurrect): ship one round of images
		// first, so the pool's replay below can land older versions on top
		// of them. The ship rides the controller connection, so that one
		// is rebuilt (and its backlog replayed) first.
		grp.Replayed += int64(reestablish(p, grp.ctl, r))
		n, err := ct.ship(p, grp, r, shipFloor, shippedAt)
		if err != nil || !rep.alive {
			abort()
			return
		}
		grp.Shipped += int64(n)
	}
	hold()
	if !ct.C.P.MutantResurrect {
		grp.Replayed += int64(reestablish(p, grp.ctl, r))
	}
	for _, cl := range held {
		grp.Replayed += int64(reestablish(p, cl, r))
	}
	release()
	if !rep.alive {
		abort()
		return
	}
	if ct.AuditReplay != nil {
		// Let the engine apply the replayed backlog, then audit before the
		// first repair image can paper over a durability lie.
		if !waitApplied(p, rep) {
			abort()
			return
		}
		ct.AuditReplay(p, grp, r)
	}

	// 2. Catch-up ship rounds while traffic continues: latest acknowledged
	// image per key for every write the replica may have missed. Under
	// sustained write load the rounds may never reach zero (each ships the
	// writes that landed during the previous one), so they are capped — the
	// barrier's final round below closes the gap, these only shrink it.
	for round := 0; ; round++ {
		n, err := ct.ship(p, grp, r, shipFloor, shippedAt)
		if err != nil || !rep.alive {
			abort()
			return
		}
		grp.Shipped += int64(n)
		if n == 0 || round >= 3 {
			break
		}
	}

	// 3. Readmission barrier: hold every pooled client (no write can be in
	// flight or complete), ship the delta since the last round, wait for
	// the victim to apply, then readmit everywhere — MarkUp therefore never
	// misses an acknowledged write.
	hold()
	n, err := ct.ship(p, grp, r, shipFloor, shippedAt)
	if err != nil || !rep.alive {
		release()
		abort()
		return
	}
	grp.Shipped += int64(n)
	if !waitApplied(p, rep) {
		release()
		abort()
		return
	}
	grp.ctl.MarkUp(r)
	for _, cl := range held {
		cl.MarkUp(r)
	}
	grp.pendingSince[r] = 0
	release()
	grp.Resyncs++
	grp.ResyncTime += p.Now().Sub(start)
	ct.event(p.Now(), "resync-done", grp.ID, r)
}

// reestablish rebuilds one client's connection to replica r, replaying its
// durable redo-log backlog server-side. The driver's serialized crash span
// makes the cross-partition Reestablish legal; a refusal (misuse outside a
// serialized span) replays nothing and surfaces as a lost-write violation
// downstream, and a crash of r during it (rpc.ErrCrashed) replays nothing
// and fails the resync's liveness check.
func reestablish(p *sim.Proc, cl *replicate.Client, r int) int {
	rec, ok := cl.Replica(r).(rpc.Recoverable)
	if !ok {
		return 0
	}
	n, err := rec.Reestablish(p)
	if err != nil {
		return 0
	}
	return n
}

// shipWindow is the ship pipeline depth: enough outstanding writes on the
// controller connection that shipping outruns the cluster's write arrival
// rate (a serial ship round could otherwise never catch up).
const shipWindow = 16

// ship sends the latest acknowledged image of every key whose record is at
// or after floor and not yet shipped at its current version, pipelined
// shipWindow deep on the controller's dedicated connection. Keys go in
// ascending order — deterministic for a fixed seed.
func (ct *Controller) ship(p *sim.Proc, grp *PGroup, r int, floor sim.Time, shippedAt map[uint64]sim.Time) (int, error) {
	ac, ok := grp.ctl.Replica(r).(rpc.AsyncClient)
	if !ok {
		return 0, nil
	}
	wrote := ct.C.Gateways[0].wrote[grp.ID]
	var reqs [shipWindow]rpc.Request
	pend := make([]*rpc.Pending, 0, shipWindow)
	drain := func() error {
		for _, pd := range pend {
			if _, ok := pd.Durable.WaitTimeout(p, ct.C.P.Retry*8); !ok {
				return rpc.ErrTimeout
			}
		}
		pend = pend[:0]
		return nil
	}
	n := 0
	for _, key := range ct.C.sortedWroteKeys(grp) {
		w := wrote[key]
		if w.at < floor || shippedAt[key] == w.at {
			continue
		}
		at := w.at // snapshot: if the record advances mid-flight, re-ship next round
		req := &reqs[len(pend)]
		*req = rpc.Request{Op: rpc.OpWrite, Key: keyIndex(key, ct.C.P.Objects), Size: len(w.buf), Payload: w.buf}
		pd, err := ac.CallAsync(p, req)
		if err != nil {
			return n, err
		}
		pend = append(pend, pd)
		shippedAt[key] = at
		n++
		if len(pend) == shipWindow {
			if err := drain(); err != nil {
				return n, err
			}
		}
	}
	return n, drain()
}

// waitApplied waits until the replica's engine queue is drained and its
// workers have had time to finish in-flight applies (a cross-partition
// read: serialized crash span only).
func waitApplied(p *sim.Proc, rep *Replica) bool {
	for rep.Engine.QueueDepth() > 0 {
		if !rep.alive {
			return false
		}
		p.Sleep(20 * time.Microsecond)
	}
	p.Sleep(100 * time.Microsecond) // workers mid-apply
	return rep.alive && rep.Engine.QueueDepth() == 0
}
