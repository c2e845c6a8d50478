package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/replicate"
	"prdma/internal/rnic"
	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// Params configures a cluster deployment.
type Params struct {
	// Shards is the number of shard groups; Replicas the replication
	// factor inside each group.
	Shards, Replicas int
	// PoolSize is the number of replicated connections pooled per shard —
	// the per-shard concurrency limit on the client side.
	PoolSize int
	// Gateways is the number of client-side gateway partitions. The
	// failover controller needs exactly one.
	Gateways int
	// VNodes is the virtual nodes per shard on the consistent-hash ring.
	VNodes int
	// Policy is the write-completion rule (replicate.WaitAll/WaitQuorum).
	Policy replicate.Policy
	// Kind is the durable RPC family replicas speak.
	Kind rpc.Kind
	// Objects and ObjSize size each replica's store.
	Objects, ObjSize int
	// Seed derives the ring placement and all workload randomness.
	Seed uint64
	// Cfg is the per-replica RPC engine configuration.
	Cfg rpc.Config
	// Restart is a crashed replica's restart latency; Retry is the client
	// retry interval while a shard rides out a failure; CheckEvery is the
	// failure-detector poll period; Grace pads the resync window to cover
	// writes that completed between the crash and its detection.
	Restart, Retry, CheckEvery, Grace time.Duration

	// MutantResurrect seeds a known bug class for the crash sweep's
	// mutant-detection check: it disables the stores' stale-write version
	// guard and makes resync ship catch-up images BEFORE the pool's
	// connections replay the victim's redo-log backlogs, so replayed old
	// versions can resurrect over newer acknowledged writes. Never set
	// outside that check.
	MutantResurrect bool

	// Net/HostP/PM/NIC are the testbed parameters for every node.
	Net   fabric.Params
	HostP host.Params
	PM    pmem.Params
	NIC   rnic.Params
}

// DefaultParams returns a 4-shard, 3-replica quorum cluster over WFlush.
func DefaultParams() Params {
	return Params{
		Shards:     4,
		Replicas:   3,
		PoolSize:   4,
		Gateways:   2,
		VNodes:     64,
		Policy:     replicate.WaitQuorum,
		Kind:       rpc.WFlushRPC,
		Objects:    1024,
		ObjSize:    256,
		Seed:       1,
		Cfg:        rpc.DefaultConfig(),
		Restart:    2 * time.Millisecond,
		Retry:      200 * time.Microsecond,
		CheckEvery: 100 * time.Microsecond,
		Grace:      time.Millisecond,
		Net:        fabric.DefaultParams(),
		HostP:      host.DefaultParams(),
		PM:         pmem.DefaultParams(),
		NIC:        rnic.DefaultParams(),
	}
}

// Replica is one storage node of a shard group.
type Replica struct {
	Host   *host.Host
	Store  *rpc.Store
	Engine *rpc.Server

	alive     bool
	crashedAt sim.Time
	Restarts  int
}

// Alive reports whether the replica host is up (the ground truth the
// failure detector polls).
func (r *Replica) Alive() bool { return r.alive }

// wroteRec is one acknowledged write: the latest payload image and
// completion time per key — a fully deduplicated redo log the controller
// ships to a rejoining replica.
type wroteRec struct {
	buf []byte
	ver uint32
	at  sim.Time
}

// PGroup is one shard group: a kernel hosting all its replicas.
//
// The failover fields below the replica list are populated only when the
// deployment has a single gateway, which is when the ctl connection is
// built. Despite living next to the server-side replicas, they are
// client-side state: every one of them is owned by the gateway kernel's
// procs — or by the driver at a window barrier — and is never touched by
// the group's own kernel.
type PGroup struct {
	ID       int
	K        *sim.Kernel
	Replicas []*Replica

	// ctl is the controller's dedicated replicated connection (never
	// pooled); nil unless the deployment has a single gateway.
	ctl *replicate.Client

	// pendingSince is per replica: the earliest moment an unresynced down
	// window began (zero when fully synced). Resync ships every key whose
	// acknowledged write completed at or after pendingSince-Grace.
	pendingSince []sim.Time
	resyncing    []bool
	resyncBusy   bool
	// quiesce diverts new operations away from the pool while the resync
	// readmission barrier collects every pooled client (see acquire).
	quiesce bool
	Primary int

	// ackAudit, when non-nil (EnableAckAudit), tracks per replica the
	// highest payload version that replica has durably acknowledged per
	// store slot. A durable ACK claims remote persistence (§4.2), so a
	// crashed replica's redo-log replay must restore at least this version
	// — the invariant the crash-point auditor checks before any repair
	// images are shipped.
	ackAudit []map[uint64]uint32

	// keys is the sorted-key scratch for deterministic ship iteration.
	keys []uint64

	// Controller and retry counters.
	Failovers, Promotions, Resyncs,
	Shipped, Replayed, Retries int64
	DetectLag, ResyncTime time.Duration
}

// PGateway is one client-side partition: a gateway host plus its per-shard
// connection pools and gateway-local bookkeeping.
type PGateway struct {
	ID   int
	K    *sim.Kernel
	Host *host.Host

	pools   []*sim.Chan[*replicate.Client] // per shard
	clients [][]*replicate.Client          // per shard: the pooled clients, for membership marks
	wrote   []map[uint64]*wroteRec         // per shard: writes acked via this gateway
	// puts and gets count completed operations per shard.
	puts, gets []int64
}

// PCluster is a cluster deployment: gateway hosts, shard groups and ring,
// spread by NewPartitioned over the kernels of a sim.Engine.
type PCluster struct {
	Eng  *sim.Engine
	P    Params
	Net  *fabric.Network
	Ring *Ring

	Gateways []*PGateway
	Groups   []*PGroup
}

func (p Params) validate() error {
	if p.Shards <= 0 || p.Replicas <= 0 || p.PoolSize <= 0 {
		return errors.New("cluster: Shards, Replicas, PoolSize must be positive")
	}
	return nil
}

// NewPartitioned builds the cluster on a fresh engine with the given worker
// count. Gateway g is engine kernel g, shard group s (all of its replicas)
// is kernel Gateways+s, so every client↔replica connection crosses a
// partition boundary and runs the rpc layer's engine mode. The engine's
// lookahead is the fabric's one-way propagation delay — the minimum
// cross-partition latency, so no message can ever need delivery inside the
// current window. The failover controller's connections are built only for
// Gateways == 1, so multi-gateway deployments keep their controller-free
// event stream.
func NewPartitioned(workers int, p Params) (*PCluster, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if p.Gateways <= 0 {
		return nil, errors.New("cluster: partitioned deployment needs Gateways > 0")
	}
	if !p.Kind.Durable() {
		return nil, fmt.Errorf("cluster: partitioned deployment needs a durable RPC family (engine mode), not %v", p.Kind)
	}
	c := &PCluster{
		Eng:  sim.NewEngine(p.Net.Lookahead(), workers),
		P:    p,
		Ring: NewRing(p.Shards, p.VNodes, p.Seed),
	}
	kernels := make([]*sim.Kernel, p.Gateways)
	for g := range kernels {
		kernels[g] = c.Eng.NewKernel()
	}
	c.Net = fabric.New(kernels[0], p.Net, p.Seed^0x5eed)
	for g, k := range kernels {
		c.addGateway(k, fmt.Sprintf("gw%d", g))
	}
	for s := 0; s < p.Shards; s++ {
		if _, err := c.addGroup(c.Eng.NewKernel(), s); err != nil {
			return nil, err
		}
	}
	for _, gw := range c.Gateways {
		for _, grp := range c.Groups {
			for i := 0; i < p.PoolSize; i++ {
				if err := c.addPooled(gw, grp); err != nil {
					return nil, err
				}
			}
		}
	}
	if p.Gateways == 1 {
		for _, grp := range c.Groups {
			if err := c.addCtl(c.Gateways[0], grp); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// addGateway appends a gateway host on kernel k with empty per-shard pools.
func (c *PCluster) addGateway(k *sim.Kernel, name string) *PGateway {
	n := c.P.Shards
	gw := &PGateway{
		ID:      len(c.Gateways),
		K:       k,
		Host:    host.New(k, name, c.Net, c.P.HostP, c.P.PM, c.P.NIC),
		pools:   make([]*sim.Chan[*replicate.Client], n),
		clients: make([][]*replicate.Client, n),
		wrote:   make([]map[uint64]*wroteRec, n),
		puts:    make([]int64, n),
		gets:    make([]int64, n),
	}
	for s := 0; s < n; s++ {
		gw.pools[s] = sim.NewChan[*replicate.Client](k)
		gw.wrote[s] = make(map[uint64]*wroteRec)
	}
	c.Gateways = append(c.Gateways, gw)
	return gw
}

// addGroup appends shard group s with its replicas on kernel k.
func (c *PCluster) addGroup(k *sim.Kernel, s int) (*PGroup, error) {
	p := c.P
	grp := &PGroup{ID: s, K: k}
	for r := 0; r < p.Replicas; r++ {
		h := host.New(k, fmt.Sprintf("s%dr%d", s, r), c.Net, p.HostP, p.PM, p.NIC)
		store, err := rpc.NewStore(h, p.Objects, p.ObjSize)
		if err != nil {
			return nil, err
		}
		if !p.MutantResurrect {
			// Verified payloads carry their version at byte 8 (see loadgen
			// fill); the store guard keeps a stale duplicate or late
			// retransmit from regressing a newer acked write. The resurrect
			// mutant disables it to seed the bug class.
			store.VersionAt = 8
		}
		engine := rpc.NewServer(h, store, p.Cfg)
		grp.Replicas = append(grp.Replicas, &Replica{Host: h, Store: store, Engine: engine, alive: true})
	}
	c.Groups = append(c.Groups, grp)
	return grp, nil
}

// connect opens one replicated connection from gateway gw to every replica
// of grp.
func (c *PCluster) connect(gw *PGateway, grp *PGroup) (*replicate.Client, error) {
	var raw []rpc.Client
	for _, rep := range grp.Replicas {
		raw = append(raw, rpc.New(c.P.Kind, gw.Host, rep.Engine, c.P.Cfg))
	}
	return replicate.New(gw.K, c.P.Policy, raw)
}

// addPooled adds one pooled connection from gw to grp.
func (c *PCluster) addPooled(gw *PGateway, grp *PGroup) error {
	rc, err := c.connect(gw, grp)
	if err != nil {
		return err
	}
	gw.clients[grp.ID] = append(gw.clients[grp.ID], rc)
	gw.pools[grp.ID].Push(rc)
	return nil
}

// addCtl builds grp's dedicated controller connection from gw plus the
// membership bookkeeping the failover controller needs.
func (c *PCluster) addCtl(gw *PGateway, grp *PGroup) error {
	rc, err := c.connect(gw, grp)
	if err != nil {
		return err
	}
	grp.ctl = rc
	grp.pendingSince = make([]sim.Time, c.P.Replicas)
	grp.resyncing = make([]bool, c.P.Replicas)
	return nil
}

// CoordStats reports the deployment's window-coordination counters: how
// many conservative windows ran, how many idle kernel dispatches were
// skipped, how many windows actually entered the worker barrier, and the
// cross-transfer slab hit rate. All values are deterministic at any worker
// count; read them after the load completes, before Shutdown. Partitioned
// deployments only.
func (c *PCluster) CoordStats() (windows, idleSkips, barriers uint64, slabHits, slabMisses int64) {
	slabHits, slabMisses = c.Net.XferSlabStats()
	return c.Eng.Windows(), c.Eng.IdleSkips(), c.Eng.Barriers(), slabHits, slabMisses
}

// Now returns the latest kernel clock in the deployment — the driver's time
// reference at a window barrier (kernels may sit at slightly different
// clocks there; the maximum is monotone across barriers).
func (c *PCluster) Now() sim.Time {
	var t sim.Time
	for _, k := range c.Eng.Kernels() {
		if now := k.Now(); now > t {
			t = now
		}
	}
	return t
}

// CrashReplica fails replica r of shard s: the host loses volatile state (PM
// survives), the engine drops its queue, the store forgets its version
// watermarks. The failover controller notices via its detector poll. The
// crash is driver context only, at a window barrier, inside a serialized
// engine span — it mutates server-kernel state and flips liveness the
// gateway-side controller polls, which is only sound where a global event
// order exists. The caller owns the restart at a later barrier and must
// hold the Serialize token until the cluster is Healthy; Driver does all
// of this.
func (c *PCluster) CrashReplica(s, r int) {
	if !c.Eng.Serialized() {
		panic("cluster: CrashReplica outside a serialized engine span")
	}
	rep := c.Groups[s].Replicas[r]
	if !rep.alive {
		return
	}
	rep.alive = false
	rep.crashedAt = c.Groups[s].K.Now()
	rep.Host.Crash()
	rep.Engine.Crash()
	rep.Store.Crash()
}

// RestartReplica brings a crashed replica back. It runs in driver context at
// a window barrier at least P.Restart past the crash (the caller models the
// restart latency by choosing the barrier).
func (c *PCluster) RestartReplica(s, r int) {
	rep := c.Groups[s].Replicas[r]
	if rep.alive {
		return
	}
	rep.Host.Restart()
	rep.alive = true
	rep.Restarts++
}

// Healthy reports whether every replica is up and — when a controller
// connection exists — readmitted (no down marks, no resync in flight).
func (c *PCluster) Healthy() bool {
	for _, grp := range c.Groups {
		for r, rep := range grp.Replicas {
			if !rep.alive {
				return false
			}
			if grp.ctl != nil && (grp.ctl.Down(r) || grp.resyncing[r]) {
				return false
			}
		}
	}
	return true
}

// EnableAckAudit starts recording, per shard and replica, the highest
// payload version each replica durably acknowledges per store slot (the
// loadgen payload layout: a little-endian uint32 version at byte 8). The
// crash-point sweep reads the record back through AckedVersions to hold
// every replica to its §4.2 ack contract: what you durably acknowledged,
// your redo log must restore. Single-gateway deployments only — the audit
// maps hang off the shard groups but are written by gateway-kernel
// callbacks, which is single-writer only with a single gateway.
func (c *PCluster) EnableAckAudit() {
	if len(c.Gateways) != 1 {
		panic("cluster: EnableAckAudit needs a single gateway")
	}
	gw := c.Gateways[0]
	for s, grp := range c.Groups {
		grp := grp
		grp.ackAudit = make([]map[uint64]uint32, c.P.Replicas)
		for r := range grp.ackAudit {
			grp.ackAudit[r] = make(map[uint64]uint32)
		}
		tag := func(req *rpc.Request) uint64 {
			if len(req.Payload) < 12 {
				return req.Key << 32
			}
			return req.Key<<32 | uint64(binary.LittleEndian.Uint32(req.Payload[8:]))
		}
		onDurable := func(replica int, t uint64, at sim.Time) {
			slot, ver := t>>32, uint32(t)
			if ver == 0 {
				return // unversioned payload: nothing to audit
			}
			if ver > grp.ackAudit[replica][slot] {
				grp.ackAudit[replica][slot] = ver
			}
		}
		for _, cl := range gw.clients[s] {
			cl.WriteTag, cl.OnDurable = tag, onDurable
		}
	}
}

// AckedVersions returns replica r's durably-acknowledged version record
// (nil unless EnableAckAudit ran). The map is live; callers must not hold
// it across further traffic.
func (grp *PGroup) AckedVersions(r int) map[uint64]uint32 {
	if grp.ackAudit == nil {
		return nil
	}
	return grp.ackAudit[r]
}

// sumReplicas totals f over every replica in the deployment.
func (c *PCluster) sumReplicas(f func(*Replica) int64) int64 {
	var n int64
	for _, grp := range c.Groups {
		for _, rep := range grp.Replicas {
			n += f(rep)
		}
	}
	return n
}

// Retransmits totals RC retransmissions across every NIC in the cluster —
// the "resends" column of the adversarial-matrix figure.
func (c *PCluster) Retransmits() int64 {
	n := c.sumReplicas(func(rep *Replica) int64 { return rep.Host.NIC.Retransmits })
	for _, gw := range c.Gateways {
		n += gw.Host.NIC.Retransmits
	}
	return n
}

// StaleDrops totals version-guarded writes the replica stores rejected as
// stale (late duplicates or retransmits of overwritten versions).
func (c *PCluster) StaleDrops() int64 {
	return c.sumReplicas(func(rep *Replica) int64 { return rep.Store.StaleDrops })
}

// PMFull totals the replicas' PM-exhaustion backpressure drops — writes the
// stores could not home because their arena ran out. Surfaced as a stat so a
// sizing mistake reads as backpressure in the figures, not a panic that
// aborts the run.
func (c *PCluster) PMFull() int64 {
	return c.sumReplicas(func(rep *Replica) int64 { return rep.Store.PMFull })
}

// ShardOps totals the completed puts and gets routed to shard s across
// every gateway.
func (c *PCluster) ShardOps(s int) (puts, gets int64) {
	for _, gw := range c.Gateways {
		puts += gw.puts[s]
		gets += gw.gets[s]
	}
	return puts, gets
}

// sortedWroteKeys fills grp.keys with gateway 0's recorded key set for this
// shard in ascending order (controller ship iteration; single gateway).
func (c *PCluster) sortedWroteKeys(grp *PGroup) []uint64 {
	wrote := c.Gateways[0].wrote[grp.ID]
	grp.keys = grp.keys[:0]
	for k := range wrote {
		grp.keys = append(grp.keys, k)
	}
	sort.Slice(grp.keys, func(i, j int) bool { return grp.keys[i] < grp.keys[j] })
	return grp.keys
}

// record notes an acknowledged write in the gateway's deduplicated log. The
// per-key buffer is reused, so the steady state allocates nothing.
func (gw *PGateway) record(shard int, key uint64, ver uint32, payload []byte, at sim.Time) {
	rec := gw.wrote[shard][key]
	if rec == nil {
		rec = &wroteRec{buf: make([]byte, 0, len(payload))}
		gw.wrote[shard][key] = rec
	}
	rec.buf = append(rec.buf[:0], payload...)
	rec.ver = ver
	rec.at = at
}

// acquire checks out a pooled client for shard s via gateway g, yielding to
// the readmission barrier first: while the resync controller is quiescing
// the shard, new operations wait here instead of queueing on the pool, so
// the barrier collects the whole pool in bounded time no matter how many
// clients are hammering it. Without a controller quiesce is never set and
// this is a plain pool pop.
func (c *PCluster) acquire(p *sim.Proc, g, s int) *replicate.Client {
	for c.Groups[s].quiesce {
		p.Sleep(20 * time.Microsecond)
	}
	return c.Gateways[g].pools[s].Pop(p)
}

// PutOn routes one durable replicated write through gateway g; p must be a
// proc on that gateway's kernel. ver tags the payload version for the
// consistency checkers; pass 0 when unused. With a failover controller
// connection (single gateway) it retries across failover windows
// (full-object writes are idempotent), so a successful return means the
// write is acknowledged under the shard's policy: it must survive any
// single-replica crash. Without one the crash-free topology needs no retry
// loop — an error is a bug, not a failover window.
func (c *PCluster) PutOn(p *sim.Proc, g int, key uint64, ver uint32, payload []byte) error {
	gw := c.Gateways[g]
	s := c.Ring.Shard(key)
	grp := c.Groups[s]
	req := rpc.Request{Op: rpc.OpWrite, Key: keyIndex(key, c.P.Objects), Size: len(payload), Payload: payload}
	if grp.ctl == nil {
		cl := gw.pools[s].Pop(p)
		at, _, err := cl.Write(p, &req)
		gw.pools[s].Push(cl)
		if err != nil {
			return fmt.Errorf("cluster: put key %d via gw %d: %w", key, g, err)
		}
		gw.puts[s]++
		gw.record(s, key, ver, payload, at)
		return nil
	}
	for attempt := 0; ; attempt++ {
		cl := c.acquire(p, g, s)
		at, _, err := cl.WriteTimeout(p, &req, c.P.Retry*8)
		gw.pools[s].Push(cl)
		if err == nil {
			gw.puts[s]++
			gw.record(s, key, ver, payload, at)
			return nil
		}
		if attempt >= putAttempts(c.P) {
			return fmt.Errorf("cluster: put key %d via gw %d failed after %d attempts: %w", key, g, attempt+1, err)
		}
		grp.Retries++
		p.Sleep(c.P.Retry)
	}
}

// GetOn routes one read through gateway g (p on that gateway's kernel) to a
// live in-sync replica of the owning shard, retrying across failover
// windows when a controller connection exists.
func (c *PCluster) GetOn(p *sim.Proc, g int, key uint64, size int) ([]byte, error) {
	gw := c.Gateways[g]
	s := c.Ring.Shard(key)
	grp := c.Groups[s]
	req := rpc.Request{Op: rpc.OpRead, Key: keyIndex(key, c.P.Objects), Size: size, Payload: empty}
	if grp.ctl == nil {
		cl := gw.pools[s].Pop(p)
		resp, err := cl.Read(p, &req)
		gw.pools[s].Push(cl)
		if err != nil {
			return nil, fmt.Errorf("cluster: get key %d via gw %d: %w", key, g, err)
		}
		gw.gets[s]++
		return resp.Data, nil
	}
	for attempt := 0; ; attempt++ {
		cl := c.acquire(p, g, s)
		resp, err := cl.ReadTimeout(p, &req, c.P.Retry*8)
		gw.pools[s].Push(cl)
		if err == nil {
			gw.gets[s]++
			return resp.Data, nil
		}
		if attempt >= putAttempts(c.P) {
			return nil, fmt.Errorf("cluster: get key %d via gw %d failed after %d attempts: %w", key, g, attempt+1, err)
		}
		grp.Retries++
		p.Sleep(c.P.Retry)
	}
}

// putAttempts bounds the retry loops: enough to ride out a full crash +
// restart + resync window at the configured retry cadence, with margin.
func putAttempts(p Params) int {
	window := p.Restart + p.Grace + 4*p.CheckEvery
	n := int(window/p.Retry) * 4
	if n < 64 {
		n = 64
	}
	return n
}

var empty = []byte{}

// keyIndex maps a cluster key to a slot in a replica's store. The identity
// mapping modulo the arena size keeps keys < Objects injective (the Verify
// workloads rely on that); larger keyspaces alias slots, which the
// consistency checker handles by comparing only each slot's last write.
func keyIndex(key uint64, objects int) uint64 { return key % uint64(objects) }

// CheckConsistency verifies, once the kernels settle (engines drained),
// that the last acknowledged write per store slot is resident and
// byte-identical on every live replica of its shard. Acknowledged-write
// records are merged across gateways with a deterministic (time, key,
// gateway) tie-break. It returns the first divergence found.
func (c *PCluster) CheckConsistency() error {
	buf := make([]byte, c.P.ObjSize)
	for s, grp := range c.Groups {
		type lastRec struct {
			key uint64
			gw  int
			rec *wroteRec
		}
		lastPerSlot := make(map[uint64]lastRec)
		for g, gw := range c.Gateways {
			keys := make([]uint64, 0, len(gw.wrote[s]))
			for k := range gw.wrote[s] {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, key := range keys {
				rec := gw.wrote[s][key]
				slot := keyIndex(key, c.P.Objects)
				prev, ok := lastPerSlot[slot]
				if !ok || rec.at > prev.rec.at ||
					(rec.at == prev.rec.at && (key > prev.key || (key == prev.key && g > prev.gw))) {
					lastPerSlot[slot] = lastRec{key: key, gw: g, rec: rec}
				}
			}
		}
		slots := make([]uint64, 0, len(lastPerSlot))
		for slot := range lastPerSlot {
			slots = append(slots, slot)
		}
		sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
		for _, slot := range slots {
			want := lastPerSlot[slot].rec.buf
			for r, rep := range grp.Replicas {
				if !rep.alive {
					continue
				}
				if !rep.Store.Has(slot) {
					return fmt.Errorf("shard %d replica %d: acked slot %d missing", s, r, slot)
				}
				got := rep.Host.PM.ReadBytesInto(rep.Store.Addr(slot), buf[:len(want)])
				if !bytes.Equal(got, want) {
					return fmt.Errorf("shard %d replica %d: acked slot %d diverged", s, r, slot)
				}
			}
		}
	}
	return nil
}
