// Package scenario runs user-described experiments on the simulated
// testbed: a JSON document picks the RPC system, workload shape, model
// knobs and optional crash injection, and the runner reports throughput,
// latency percentiles and model counters. cmd/prdmasim is the CLI front
// end; the package exists so scenarios are testable.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"prdma/internal/cluster"
	"prdma/internal/fabric"
	"prdma/internal/failure"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/rnic"
	"prdma/internal/rpc"
	"prdma/internal/sim"
	"prdma/internal/stats"
	"prdma/internal/trace"
	"prdma/internal/ycsb"
)

// Spec is the JSON scenario document.
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

// Report is the scenario outcome.
type Report struct {
	Name    string  `json:"name"`
	RPC     string  `json:"rpc"`
	Ops     int     `json:"ops"`
	Elapsed string  `json:"virtualTime"`
	KOPS    float64 `json:"kops"`

	AvgUS float64 `json:"avgUS"`
	P50US float64 `json:"p50US"`
	P95US float64 `json:"p95US"`
	P99US float64 `json:"p99US"`

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
// pmpool sections), a read fraction outside [0, 1], and fewer ops than
// clients, which would leave some client with nothing to do. It runs after
// applyDefaults, from both Load and Run, so a malformed spec is an error,
// never a panic or a misreported run.
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
	return nil
}

// Run executes the scenario.
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

	np := fabric.DefaultParams()
	if s.BusyNetwork {
		np.BusyQueueMean = 4 * time.Microsecond
		np.BusyBandwidthShare = 0.6
	}
	nicp := rnic.DefaultParams()
	nicp.EmulateFlush = !s.NativeFlush
	nicp.DDIO = s.DDIO
	hpCli, hpSrv := host.DefaultParams(), host.DefaultParams()
	if s.BusySender {
		hpCli.LoadFactor = 4
	}
	if s.BusyReceiver {
		hpSrv.LoadFactor = 4
	}
	cfg := rpc.DefaultConfig()
	cfg.Workers = s.Workers
	cfg.ProcessingTime = time.Duration(s.ProcessingUS) * time.Microsecond

	k := sim.New()
	net := fabric.New(k, np, s.Seed)
	srv := host.New(k, "server", net, hpSrv, pmem.DefaultParams(), nicp)
	store, err := rpc.NewStore(srv, s.Objects, s.ObjectSize)
	if err != nil {
		return nil, err
	}
	engine := rpc.NewServer(srv, store, cfg)

	var tr *trace.Tracer
	if s.Trace {
		tr = trace.New(func() int64 { return int64(k.Now()) }, s.TraceEvents)
		srv.NIC.Trace = tr.Emit
	}

	rep := &Report{Name: s.Name, RPC: kind.String()}

	if s.Crashes != nil {
		if s.Clients != 1 {
			return nil, fmt.Errorf("scenario: crash injection supports a single client host")
		}
		cli := host.New(k, "client-0", net, hpCli, pmem.DefaultParams(), nicp)
		rcl, ok := rpc.New(kind, cli, engine, cfg).(rpc.Recoverable)
		if !ok {
			return nil, fmt.Errorf("scenario: %v does not support crash recovery", kind)
		}
		fp := failure.Params{
			Restart:      time.Duration(orDefault(s.Crashes.RestartMS, 300)) * time.Millisecond,
			Retransfer:   time.Duration(orDefault(s.Crashes.RetransferMS, 100)) * time.Millisecond,
			Crashes:      orDefault(s.Crashes.Count, 3),
			OpsPerWindow: s.Ops / (orDefault(s.Crashes.Count, 3) + 1),
			Pipeline:     orDefault(s.Crashes.Pipeline, 8),
		}
		drv := failure.NewDriver(k, srv, engine, rcl, fp)
		mix := ycsb.NewMix(s.ReadFraction, int64(s.Objects), s.ObjectSize, s.Seed)
		payload := make([]byte, s.ObjectSize)
		var m failure.Measurement
		var start, end sim.Time
		k.Go("driver", func(p *sim.Proc) {
			start = p.Now()
			m = drv.Run(p, func(i int) *rpc.Request {
				req := mix.Next()
				if req.Op == rpc.OpWrite {
					req.Payload = payload
				} else {
					req.Payload = []byte{}
				}
				return req
			})
			end = p.Now()
		})
		k.Run()
		rep.Ops = m.Ops
		rep.Crashes = m.Crashes
		rep.Replayed = m.Replayed
		rep.Resent = m.Resent
		rep.Elapsed = end.Sub(start).String()
		rep.KOPS = stats.Throughput{Ops: m.Ops, Elapsed: end.Sub(start)}.KOPS()
		rep.AvgUS = us(m.CleanPerOp)
		rep.Counters = s.counters(srv, engine)
		s.attachTrace(rep, tr)
		return rep, nil
	}

	lat := stats.NewLatency(s.Ops)
	wg := sim.NewWaitGroup(k)
	per := s.Ops / s.Clients
	var end sim.Time
	// callErr is the first failed call; it stops the run (e.g. a FaSST
	// object too large for one UD frame).
	var callErr error
	for i := 0; i < s.Clients; i++ {
		name := fmt.Sprintf("client-%d", i)
		cli := host.New(k, name, net, hpCli, pmem.DefaultParams(), nicp)
		client := rpc.New(kind, cli, engine, cfg)
		mix := ycsb.NewMix(s.ReadFraction, int64(s.Objects), s.ObjectSize, s.Seed+uint64(i)*7919)
		wg.Add(1)
		k.Go(fmt.Sprintf("driver-%d", i), func(p *sim.Proc) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				r, err := client.Call(p, mix.Next())
				if err != nil {
					if callErr == nil {
						callErr = fmt.Errorf("scenario: %s: %w", name, err)
					}
					k.Stop()
					return
				}
				lat.Add(r.ReadyAt.Sub(r.IssuedAt))
			}
		})
	}
	completed := false
	k.Go("joiner", func(p *sim.Proc) {
		wg.Wait(p)
		end = p.Now()
		completed = true
	})
	k.Run()
	if callErr != nil {
		k.Shutdown()
		return nil, callErr
	}
	if !completed {
		return nil, fmt.Errorf("scenario: run did not complete (protocol stall)")
	}

	rep.Ops = per * s.Clients
	rep.Elapsed = end.Duration().String()
	rep.KOPS = stats.Throughput{Ops: rep.Ops, Elapsed: end.Duration()}.KOPS()
	rep.AvgUS = us(lat.Mean())
	rep.P50US = us(lat.Percentile(50))
	rep.P95US = us(lat.Percentile(95))
	rep.P99US = us(lat.Percentile(99))
	rep.Counters = s.counters(srv, engine)
	s.attachTrace(rep, tr)
	return rep, nil
}

// runCluster executes the scenario against a sharded, replicated cluster:
// the workload fans over a consistent-hash ring of Shards replication
// groups, optionally losing one shard primary mid-run. The run fails if
// any operation fails permanently, any read returns a malformed payload,
// the victim is never readmitted, or any acknowledged write is lost or
// diverges across replicas.
func (s *Spec) runCluster(kind rpc.Kind) (*Report, error) {
	cs := s.Cluster
	fault, err := cs.resolveFault()
	if err != nil {
		return nil, err
	}
	var wl ycsb.Workload
	if cs.Workload != "" {
		ws, err := ParseWorkloads(cs.Workload)
		if err != nil {
			return nil, err
		}
		if len(ws) != 1 {
			return nil, fmt.Errorf("scenario: cluster workload must be a single YCSB letter, got %q", cs.Workload)
		}
		wl = ws[0]
	}
	p := cluster.DefaultParams()
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
	if fault != nil {
		// Adversary runs retransmit aggressively: a sub-millisecond
		// partition or drop burst must be ridden out by RC retries well
		// inside the retry budget, not kill the queue pair.
		p.NIC.RetransmitInterval = 100 * time.Microsecond
		p.NIC.RetryCount = 64
	}

	k := sim.New()
	c, err := cluster.New(k, p)
	if err != nil {
		return nil, err
	}
	if fault != nil {
		c.Net.SetInjector(fabric.NewInjector(*fault, s.Seed^0xfa175eed))
	}
	ct, err := c.StartController()
	if err != nil {
		return nil, err
	}
	crashes := 0
	if cs.CrashPrimary {
		c.CrashPrimaryAfter(0, int64(s.Ops/5), func(int, sim.Time) { crashes++ })
	}
	load, err := c.StartLoad(cluster.Load{
		Clients:  s.Clients,
		Ops:      s.Ops,
		ReadFrac: s.ReadFraction,
		Workload: wl,
		OpenLoop: cs.OpenLoop,
		Rate:     cs.RatePerSec,
		Verify:   true,
		Seed:     s.Seed,
	})
	if err != nil {
		return nil, err
	}
	var healthy bool
	k.Go("driver", func(mp *sim.Proc) {
		load.Wait(mp)
		healthy = c.AwaitHealthy(mp, 200*time.Millisecond)
		mp.Sleep(2 * time.Millisecond) // engines apply their tails
		ct.Stop()
	})
	k.Run()
	res := load.Collect()
	if res.Errors > 0 || res.BadReads > 0 {
		return nil, fmt.Errorf("scenario: cluster run had %d failed ops, %d bad reads", res.Errors, res.BadReads)
	}
	if !healthy {
		return nil, fmt.Errorf("scenario: cluster never returned to full health")
	}
	if err := c.CheckConsistency(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
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
		Crashes: crashes,
	}
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
		rep.Replayed = int(rep.Counters["logReplayed"])
	}
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
		if f, err = FaultByName(cs.FaultName); err != nil {
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

// attachTrace copies recorded events into the report.
func (s *Spec) attachTrace(rep *Report, tr *trace.Tracer) {
	if tr == nil {
		return
	}
	for _, ev := range tr.Events() {
		rep.Trace = append(rep.Trace, fmt.Sprintf("%.3fus %s %s", float64(ev.AtNanos)/1e3, ev.Cat, ev.Msg))
	}
}

// counters gathers model introspection totals.
func (s *Spec) counters(srv *host.Host, engine *rpc.Server) map[string]int64 {
	return map[string]int64{
		"serverPersistOps":   srv.PM.PersistOps,
		"serverPersistBytes": srv.PM.PersistBytes,
		"serverPMReads":      srv.PM.ReadOps,
		"nicStagedMsgs":      srv.NIC.StagedMsgs,
		"nicFlushAcks":       srv.NIC.FlushAcks,
		"llcFlushes":         srv.LLC.Flushes,
		"handled":            engine.Handled,
		"storeReads":         engine.Store.Reads,
		"storeWrites":        engine.Store.Writes,
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func orDefault(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}
