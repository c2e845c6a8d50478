package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	kv "prdma/internal/cluster"
	"prdma/internal/fabric"
	"prdma/internal/failure"
	"prdma/internal/graph"
	"prdma/internal/pmpool"
	"prdma/internal/rpc"
	"prdma/internal/stats"
	"prdma/internal/trace"
	"prdma/internal/ycsb"
)

// Spec is the JSON scenario document: a user-described experiment that
// picks the RPC system, workload shape, model knobs and optional crash
// injection, cluster or PM pool. Run reports throughput, latency
// percentiles and model counters; cmd/prdmasim is the CLI front end.
type Spec struct {
	// Name labels the run in the report.
	Name string `json:"name"`
	// RPC selects the system by its display name, e.g. "WFlush-RPC",
	// "FaRM", "DaRPC".
	RPC string `json:"rpc"`
	// Ops, Objects, ObjectSize and ReadFraction shape the workload.
	Ops          int     `json:"ops"`
	Objects      int     `json:"objects"`
	ObjectSize   int     `json:"objectSize"`
	ReadFraction float64 `json:"readFraction"`
	// Clients is the number of concurrent sender hosts.
	Clients int `json:"clients"`
	// ProcessingUS injects per-request server processing (µs).
	ProcessingUS int `json:"processingUS"`
	// Workers sizes the server worker pool.
	Workers int `json:"workers"`
	// Seed makes runs reproducible.
	Seed uint64 `json:"seed"`

	// Model knobs.
	BusyNetwork  bool `json:"busyNetwork"`
	BusyReceiver bool `json:"busyReceiver"`
	BusySender   bool `json:"busySender"`
	DDIO         bool `json:"ddio"`
	NativeFlush  bool `json:"nativeFlush"`

	// Crashes optionally injects failures (durable/recoverable RPCs and
	// the FaRM baseline only).
	Crashes *CrashSpec `json:"crashes"`

	// Cluster runs the workload against a sharded, replicated durable-KV
	// cluster (internal/cluster) instead of a single server.
	Cluster *ClusterSpec `json:"cluster"`

	// PMPool runs the disaggregated shuffle through the remote
	// persistent-memory pool (internal/pmpool) instead of the KV workload.
	PMPool *PMPoolSpec `json:"pmpool,omitempty"`

	// Trace records up to TraceEvents model events (NIC staging, flush
	// ACKs, retransmissions, crashes, recovery) into the report.
	Trace       bool `json:"trace"`
	TraceEvents int  `json:"traceEvents"`
}

// CrashSpec configures failure injection.
type CrashSpec struct {
	Count        int `json:"count"`
	RestartMS    int `json:"restartMS"`
	RetransferMS int `json:"retransferMS"`
	Pipeline     int `json:"pipeline"`
}

// count is the number of crashes, 3 unless set.
func (c *CrashSpec) count() int { return orDefault(c.Count, 3) }

// ClusterSpec shapes the sharded, replicated deployment.
type ClusterSpec struct {
	Shards   int `json:"shards"`
	Replicas int `json:"replicas"`
	// CrashPrimary crashes shard 0's primary once a fifth of the
	// operations have completed; the failover controller must promote a
	// survivor, resynchronize the victim, and lose no acknowledged write.
	CrashPrimary bool `json:"crashPrimary"`
	// OpenLoop switches the load generator to Poisson arrivals at
	// RatePerSec ops/s (closed loop otherwise).
	OpenLoop   bool    `json:"openLoop"`
	RatePerSec float64 `json:"ratePerSec"`
	// Workload, when set, drives the load from one YCSB core workload
	// letter ("A".."F") instead of the plain readFraction mix.
	Workload string `json:"workload,omitempty"`
	// FaultName installs a builtin fabric adversary by name (the
	// adversarial-matrix library: "partition", "gray", "reorder", ...);
	// Fault embeds a custom adversary inline. At most one of the two.
	FaultName string            `json:"faultName,omitempty"`
	Fault     *fabric.FaultSpec `json:"fault,omitempty"`
}

// PMPoolSpec shapes the disaggregated-shuffle run over the remote
// persistent-memory pool (internal/pmpool): PageRank whose every
// map→reduce exchange is staged through remote PM, with the final ranks
// checked bit-for-bit against the local in-memory baseline.
type PMPoolSpec struct {
	// Servers and Clients size the deployment: Servers pool nodes striped
	// by consistent hash, Clients hosts each with a striping Pool front end.
	Servers int `json:"servers"`
	Clients int `json:"clients"`
	// Maps, Reducers and Iterations shape the shuffle PageRank.
	Maps       int `json:"maps"`
	Reducers   int `json:"reducers"`
	Iterations int `json:"iterations"`
	// GraphScale divides the wordassociation-2011 dataset (default 8).
	GraphScale int `json:"graphScale"`
}

// Report is the scenario outcome.
type Report struct {
	Name    string  `json:"name"`
	RPC     string  `json:"rpc"`
	Ops     int     `json:"ops"`
	Elapsed string  `json:"virtualTime"`
	KOPS    float64 `json:"kops"`

	// A latency the run did not measure is left out of the report: a crash
	// run measures only the mean and a pool run none. A measured latency is
	// never 0 µs.
	AvgUS float64 `json:"avgUS,omitempty"`
	P50US float64 `json:"p50US,omitempty"`
	P95US float64 `json:"p95US,omitempty"`
	P99US float64 `json:"p99US,omitempty"`

	Counters map[string]int64 `json:"counters"`

	// Trace holds recorded model events when the spec enabled tracing.
	Trace []string `json:"trace,omitempty"`

	// Failure fields, present when crashes were injected.
	Crashes  int `json:"crashes,omitempty"`
	Replayed int `json:"replayed,omitempty"`
	Resent   int `json:"resent,omitempty"`
}

// kindByName resolves an RPC display name.
func kindByName(name string) (rpc.Kind, error) {
	all := append(append([]rpc.Kind{}, rpc.Kinds...), rpc.Herd, rpc.LITE, rpc.OctopusWFlush, rpc.Hotpot)
	for _, k := range all {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown rpc %q (try e.g. %q, %q, %q)", name, rpc.WFlushRPC, rpc.FaRM, rpc.DaRPC)
}

// applyDefaults fills unset fields.
func (s *Spec) applyDefaults() {
	if s.Ops == 0 {
		s.Ops = 20000
	}
	if s.Objects == 0 {
		s.Objects = 10000
	}
	if s.ObjectSize == 0 {
		s.ObjectSize = 4096
	}
	if s.Clients == 0 {
		s.Clients = 1
	}
	if s.Workers == 0 {
		s.Workers = 3
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.RPC == "" {
		s.RPC = rpc.WFlushRPC.String()
	}
}

// Load parses a JSON scenario.
func Load(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s.applyDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validate rejects numbers no run can honour and names the field: negative
// counts, sizes and times (in the spec and in its crashes, cluster and
// pmpool sections), a read fraction outside [0, 1], fewer ops than
// clients, which would leave some client with nothing to do, and fewer ops
// than crash windows (crashes.count+1), which would leave a window empty.
// It runs after applyDefaults, from both Load and Run, so a malformed spec
// is an error, never a panic or a misreported run.
func (s *Spec) validate() error {
	type field struct {
		name string
		v    int
	}
	fields := []field{
		{"ops", s.Ops}, {"objects", s.Objects}, {"objectSize", s.ObjectSize},
		{"clients", s.Clients}, {"processingUS", s.ProcessingUS},
		{"workers", s.Workers}, {"traceEvents", s.TraceEvents},
	}
	if c := s.Crashes; c != nil {
		fields = append(fields, field{"crashes.count", c.Count}, field{"crashes.restartMS", c.RestartMS},
			field{"crashes.retransferMS", c.RetransferMS}, field{"crashes.pipeline", c.Pipeline})
	}
	if c := s.Cluster; c != nil {
		fields = append(fields, field{"cluster.shards", c.Shards}, field{"cluster.replicas", c.Replicas})
		if c.RatePerSec < 0 {
			return fmt.Errorf("scenario: cluster.ratePerSec is %g; it must not be negative", c.RatePerSec)
		}
	}
	if p := s.PMPool; p != nil {
		fields = append(fields, field{"pmpool.servers", p.Servers}, field{"pmpool.clients", p.Clients},
			field{"pmpool.maps", p.Maps}, field{"pmpool.reducers", p.Reducers},
			field{"pmpool.iterations", p.Iterations}, field{"pmpool.graphScale", p.GraphScale})
	}
	for _, f := range fields {
		if f.v < 0 {
			return fmt.Errorf("scenario: %s is %d; it must not be negative", f.name, f.v)
		}
	}
	if !(s.ReadFraction >= 0 && s.ReadFraction <= 1) {
		return fmt.Errorf("scenario: readFraction is %g; it must lie in [0, 1]", s.ReadFraction)
	}
	if s.Ops < s.Clients {
		return fmt.Errorf("scenario: ops (%d) is smaller than clients (%d); every client needs at least one op", s.Ops, s.Clients)
	}
	if c := s.Crashes; c != nil && s.Ops < c.count()+1 {
		return fmt.Errorf("scenario: ops (%d) is smaller than crashes.count+1 (%d); every crash window needs at least one op", s.Ops, c.count()+1)
	}
	return nil
}

// Run executes the scenario on its shape's figure driver: a pmpool spec on
// the pool figure's shuffle, a cluster spec on the cluster failover run, a
// crash spec on Fig. 12's failure loop, and any other on the §5.1 closed
// loop, with the spec's knobs as deployment tweaks.
func (s *Spec) Run() (*Report, error) {
	s.applyDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	kind, err := kindByName(s.RPC)
	if err != nil {
		return nil, err
	}
	if s.Crashes != nil && s.Cluster != nil {
		return nil, fmt.Errorf("scenario: crashes and cluster are mutually exclusive (cluster runs inject failures via crashPrimary or a fault spec)")
	}
	if s.PMPool != nil && (s.Crashes != nil || s.Cluster != nil) {
		return nil, fmt.Errorf("scenario: pmpool is its own deployment shape — it excludes crashes and cluster (pool crash coverage lives in prdmabench -crashcheck -pmpool)")
	}
	if s.PMPool != nil {
		return s.runPMPool(kind)
	}
	if s.Cluster != nil {
		return s.runCluster(kind)
	}

	o := Options{Objects: s.Objects, Seed: s.Seed, EmulateFlush: true}
	d := o.deploy(s.ObjectSize, withSenders(s.Clients), workers(s.Workers),
		processing(time.Duration(s.ProcessingUS)*time.Microsecond),
		when(s.BusyNetwork, busyNetwork), when(s.BusyReceiver, busyReceiver), when(s.BusySender, busySender),
		when(s.DDIO, withDDIO), when(s.NativeFlush, nativeFlush))
	c, err := d.build()
	if err != nil {
		return nil, err
	}
	var tr *trace.Tracer
	if s.Trace {
		tr = trace.New(func() int64 { return int64(c.k.Now()) }, s.TraceEvents)
		c.server.NIC.Trace = tr.Emit
	}
	rep := &Report{Name: s.Name, RPC: kind.String()}
	if cs := s.Crashes; cs != nil {
		if s.Clients != 1 {
			return nil, fmt.Errorf("scenario: crash injection supports a single client host")
		}
		m, elapsed, err := c.failureLoop(kind, d, s.ReadFraction, failure.Params{
			Restart:      time.Duration(orDefault(cs.RestartMS, 300)) * time.Millisecond,
			Retransfer:   time.Duration(orDefault(cs.RetransferMS, 100)) * time.Millisecond,
			Crashes:      cs.count(),
			OpsPerWindow: s.Ops / (cs.count() + 1),
			Pipeline:     orDefault(cs.Pipeline, 8),
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		rep.Ops, rep.Crashes, rep.Replayed, rep.Resent = m.Ops, m.Crashes, m.Replayed, m.Resent
		rep.Elapsed = elapsed.String()
		rep.KOPS = stats.Throughput{Ops: m.Ops, Elapsed: elapsed}.KOPS()
		rep.AvgUS = us(m.CleanPerOp)
	} else {
		m, err := c.closedLoop(kind, d, s.Ops, s.ReadFraction)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		rep.Ops = m.Ops
		rep.Elapsed = m.Elapsed.String()
		rep.KOPS = m.KOPS()
		rep.AvgUS = us(m.Lat.Mean())
		rep.P50US = us(m.Lat.Percentile(50))
		rep.P95US = us(m.Lat.Percentile(95))
		rep.P99US = us(m.Lat.Percentile(99))
	}
	rep.Counters = map[string]int64{
		"serverPersistOps":   c.server.PM.PersistOps,
		"serverPersistBytes": c.server.PM.PersistBytes,
		"serverPMReads":      c.server.PM.ReadOps,
		"nicStagedMsgs":      c.server.NIC.StagedMsgs,
		"nicFlushAcks":       c.server.NIC.FlushAcks,
		"llcFlushes":         c.server.LLC.Flushes,
		"handled":            c.engine.Handled,
		"storeReads":         c.store.Reads,
		"storeWrites":        c.store.Writes,
	}
	if tr != nil {
		for _, ev := range tr.Events() {
			rep.Trace = append(rep.Trace, fmt.Sprintf("%.3fus %s %s", float64(ev.AtNanos)/1e3, ev.Cat, ev.Msg))
		}
	}
	return rep, nil
}

// when applies t only if on is set.
func when(on bool, t tweak) tweak {
	if on {
		return t
	}
	return func(*deployment) {}
}

// runCluster executes the scenario against a sharded, replicated cluster
// (clusterRun): the workload fans over a consistent-hash ring of Shards
// replication groups, optionally losing one shard primary mid-run. The run
// fails if any operation fails permanently, any read returns a malformed
// payload, the victim is never readmitted, or any acknowledged write is
// lost or diverges across replicas.
func (s *Spec) runCluster(kind rpc.Kind) (*Report, error) {
	cs := s.Cluster
	fault, err := cs.resolveFault()
	if err != nil {
		return nil, err
	}
	var wl ycsb.Workload
	if cs.Workload != "" {
		ws, err := ycsb.ParseWorkloads(cs.Workload)
		if err != nil {
			return nil, err
		}
		if len(ws) != 1 {
			return nil, fmt.Errorf("scenario: cluster workload must be a single YCSB letter, got %q", cs.Workload)
		}
		wl = ws[0]
	}
	p := kv.DefaultParams()
	if cs.Shards > 0 {
		p.Shards = cs.Shards
	}
	if cs.Replicas > 0 {
		p.Replicas = cs.Replicas
	}
	p.Kind = kind
	p.Objects = s.Objects
	p.ObjSize = s.ObjectSize
	p.Seed = s.Seed
	p.Cfg.Workers = s.Workers
	p.Cfg.ProcessingTime = time.Duration(s.ProcessingUS) * time.Microsecond
	f, err := clusterRun(p, kv.Load{
		Clients:  s.Clients,
		Ops:      s.Ops,
		ReadFrac: s.ReadFraction,
		Workload: wl,
		OpenLoop: cs.OpenLoop,
		Rate:     cs.RatePerSec,
		Verify:   true,
		Seed:     s.Seed,
	}, cs.CrashPrimary, fault)
	if err != nil {
		return nil, err
	}
	res := f.res
	if res.Errors > 0 || res.BadReads > 0 {
		return nil, fmt.Errorf("scenario: cluster run had %d failed ops, %d bad reads", res.Errors, res.BadReads)
	}
	if !f.healthy {
		return nil, fmt.Errorf("scenario: cluster never returned to full health")
	}
	if f.consistency != nil {
		return nil, fmt.Errorf("scenario: %w", f.consistency)
	}

	lat := stats.NewLatency(len(res.Samples))
	for _, sm := range res.Samples {
		lat.Add(sm.Dur)
	}
	elapsed := res.End.Duration()
	rep := &Report{
		Name:    s.Name,
		RPC:     kind.String(),
		Ops:     len(res.Samples),
		Elapsed: elapsed.String(),
		KOPS:    stats.Throughput{Ops: len(res.Samples), Elapsed: elapsed}.KOPS(),
		AvgUS:   us(lat.Mean()),
		P50US:   us(lat.Percentile(50)),
		P95US:   us(lat.Percentile(95)),
		P99US:   us(lat.Percentile(99)),
		Crashes: f.crashes,
	}
	c := f.c
	rep.Counters = map[string]int64{}
	for i, sh := range c.Groups {
		puts, gets := c.ShardOps(i)
		rep.Counters["puts"] += puts
		rep.Counters["gets"] += gets
		rep.Counters["retries"] += sh.Retries
		rep.Counters["failovers"] += sh.Failovers
		rep.Counters["promotions"] += sh.Promotions
		rep.Counters["resyncs"] += sh.Resyncs
		rep.Counters["imagesShipped"] += sh.Shipped
		rep.Counters["logReplayed"] += sh.Replayed
	}
	rep.Replayed = int(rep.Counters["logReplayed"])
	if fault != nil {
		rep.Counters["retransmits"] = c.Retransmits()
		rep.Counters["staleDrops"] = c.StaleDrops()
		rep.Counters["faultDrops"] = c.Net.DroppedFault
		rep.Counters["duplicated"] = c.Net.Duplicated
		rep.Counters["reordered"] = c.Net.Reordered
	}
	return rep, nil
}

// resolveFault turns the spec's fault fields into one validated adversary
// (nil when the run is unfaulted).
func (cs *ClusterSpec) resolveFault() (*fabric.FaultSpec, error) {
	if cs.FaultName != "" && cs.Fault != nil {
		return nil, fmt.Errorf("scenario: set faultName or an inline fault, not both")
	}
	var f fabric.FaultSpec
	switch {
	case cs.FaultName != "":
		var err error
		if f, err = kv.FaultByName(cs.FaultName); err != nil {
			return nil, err
		}
	case cs.Fault != nil:
		f = *cs.Fault
		if err := f.Validate(); err != nil {
			return nil, err
		}
	default:
		return nil, nil
	}
	if f.Empty() {
		return nil, nil
	}
	return &f, nil
}

// runPMPool executes the pmpool scenario on the pool figure's shuffle
// (pmpoolShuffle) and fails the run on any leak or rank divergence — the
// two invariants a correct pool cannot break.
func (s *Spec) runPMPool(kind rpc.Kind) (*Report, error) {
	if !slices.Contains(rpc.DurableKinds, kind) {
		return nil, fmt.Errorf("scenario: pmpool needs a durable RPC family, not %v", kind)
	}
	ps := s.PMPool
	scale := orDefault(ps.GraphScale, 8)
	g := graph.Generate(graph.Dataset{
		Name:  graph.WordAssociation.Name,
		Nodes: graph.WordAssociation.Nodes / scale,
		Edges: graph.WordAssociation.Edges / scale,
	}, s.Seed)
	cfg := pmpool.DefaultShuffleConfig()
	if ps.Maps > 0 {
		cfg.Maps = ps.Maps
	}
	if ps.Reducers > 0 {
		cfg.Reducers = ps.Reducers
	}
	if ps.Iterations > 0 {
		cfg.Iterations = ps.Iterations
	}
	r, err := pmpoolShuffle(g, cfg, orDefault(ps.Servers, 2), orDefault(ps.Clients, 2), kind, s.Workers, s.Seed)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if r.leaked != 0 {
		return nil, fmt.Errorf("scenario: pmpool leaked %d blocks (every shuffle block is freed with an ack)", r.leaked)
	}
	if err := pmpool.CompareRanks(r.ranks, r.local); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	rep := &Report{
		Name:    s.Name,
		RPC:     kind.String(),
		Ops:     int(r.stats.Blocks),
		Elapsed: r.elapsed.String(),
		KOPS:    stats.Throughput{Ops: int(r.stats.Blocks), Elapsed: r.elapsed}.KOPS(),
	}
	rep.Counters = map[string]int64{
		"shuffleBlocks": r.stats.Blocks,
		"shuffleBytes":  r.stats.Bytes,
		"blocksLeaked":  int64(r.leaked),
		"ranks":         int64(len(r.ranks)),
		"iterations":    int64(cfg.Iterations),
	}
	return rep, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func orDefault(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}
