// Package bench implements one experiment driver per table/figure of the
// paper's evaluation (§5). Each driver builds fresh clusters, runs the
// workload the paper describes, and returns rows shaped like the published
// plot. cmd/prdmabench prints them; the repository's bench_test.go wraps
// them as Go benchmarks; EXPERIMENTS.md records paper-vs-measured. JSON
// scenarios (Spec, cmd/prdmasim) run on the same drivers.
package bench

import (
	"fmt"
	"time"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/rnic"
	"prdma/internal/rpc"
	"prdma/internal/sim"
	"prdma/internal/stats"
	"prdma/internal/ycsb"
)

// Options scales the experiments. The paper's full parameters (300 K ops,
// 50 K objects) reproduce exactly with Full(); tests and quick runs use
// smaller counts — the workloads are statistically identical, just shorter.
type Options struct {
	// Ops per configuration (paper: 300 000).
	Ops int
	// Objects pre-loaded in the store (paper: 50 000).
	Objects int
	// Senders for the concurrency experiment's per-sender op count
	// (paper: 30 000 each).
	OpsPerSender int
	// PageRankIters per run.
	PageRankIters int
	// GraphScale divides the paper's dataset sizes (1 = full).
	GraphScale int
	// Seed for all generators.
	Seed uint64
	// EmulateFlush selects the paper's measured emulation (default) or
	// the native primitives.
	EmulateFlush bool
	// Parallel is the number of experiment cells run concurrently by each
	// figure driver: 0 or 1 runs strictly sequentially, a negative value
	// uses one worker per available CPU. Each cell builds its own
	// sim.Kernel, so results are identical at any setting; only wall time
	// changes (see internal/bench/runner.go).
	Parallel int
}

// Quick returns options sized for unit tests and smoke runs.
func Quick() Options {
	return Options{
		Ops: 1500, Objects: 2000, OpsPerSender: 150,
		PageRankIters: 1, GraphScale: 20, Seed: 1, EmulateFlush: true,
	}
}

// Default returns options sized for a few-minute full harness run.
func Default() Options {
	return Options{
		Ops: 20000, Objects: 10000, OpsPerSender: 1500,
		PageRankIters: 2, GraphScale: 4, Seed: 1, EmulateFlush: true,
	}
}

// Full returns the paper's exact workload sizes. Expect long runs.
func Full() Options {
	return Options{
		Ops: 300000, Objects: 50000, OpsPerSender: 30000,
		PageRankIters: 5, GraphScale: 1, Seed: 1, EmulateFlush: true,
	}
}

// cluster bundles one experiment deployment.
type cluster struct {
	k      *sim.Kernel
	net    *fabric.Network
	server *host.Host
	engine *rpc.Server
	store  *rpc.Store
	cli    []*host.Host
}

// tweak adjusts the model before a run.
type tweak func(*deployment)

// deployment is the full parameter set for one run.
type deployment struct {
	net     fabric.Params
	hostCli host.Params
	hostSrv host.Params
	pm      pmem.Params
	nic     rnic.Params
	cfg     rpc.Config
	senders int
	objSize int
	objects int
	seed    uint64
}

func (o Options) deploy(objSize int, tweaks ...tweak) *deployment {
	d := &deployment{
		net: fabric.DefaultParams(), hostCli: host.DefaultParams(),
		hostSrv: host.DefaultParams(), pm: pmem.DefaultParams(),
		nic: rnic.DefaultParams(), cfg: rpc.DefaultConfig(),
		senders: 1, objSize: objSize, objects: o.Objects, seed: o.Seed,
	}
	d.nic.EmulateFlush = o.EmulateFlush
	for _, t := range tweaks {
		t(d)
	}
	return d
}

// newFabric and newHost are the deployment's component constructors, shared
// with multi-server topologies (the replication extension).
func newFabric(k *sim.Kernel, d *deployment) *fabric.Network {
	return fabric.New(k, d.net, d.seed)
}

func newHost(k *sim.Kernel, name string, net *fabric.Network, hp host.Params, d *deployment) *host.Host {
	return host.New(k, name, net, hp, d.pm, d.nic)
}

// build instantiates a deployment.
func (d *deployment) build() (*cluster, error) {
	k := sim.New()
	net := fabric.New(k, d.net, d.seed)
	srv := host.New(k, "server", net, d.hostSrv, d.pm, d.nic)
	store, err := rpc.NewStore(srv, d.objects, d.objSize)
	if err != nil {
		return nil, err
	}
	engine := rpc.NewServer(srv, store, d.cfg)
	c := &cluster{k: k, net: net, server: srv, engine: engine, store: store}
	for i := 0; i < d.senders; i++ {
		c.cli = append(c.cli, host.New(k, fmt.Sprintf("client-%d", i), net, d.hostCli, d.pm, d.nic))
	}
	return c, nil
}

// mustBuild is build for the figures, whose deployments always fit.
func (d *deployment) mustBuild() *cluster {
	c, err := d.build()
	if err != nil {
		panic(err)
	}
	return c
}

// Common tweaks.
func processing(t time.Duration) tweak { return func(d *deployment) { d.cfg.ProcessingTime = t } }

var heavyLoad = processing(100 * time.Microsecond)

func withSenders(n int) tweak { return func(d *deployment) { d.senders = n } }
func busyNetwork(d *deployment) {
	// A background flood of small packets: queueing delay plus reduced
	// effective bandwidth (§5.5, Fig. 14).
	d.net.BusyQueueMean = 4 * time.Microsecond
	d.net.BusyBandwidthShare = 0.6
}
func busyReceiver(d *deployment) { d.hostSrv.LoadFactor = 4 }
func busySender(d *deployment)   { d.hostCli.LoadFactor = 4 }
func nativeFlush(d *deployment)  { d.nic.EmulateFlush = false }
func withDDIO(d *deployment)     { d.nic.DDIO = true }
func workers(n int) tweak        { return func(d *deployment) { d.cfg.Workers = n } }
func throttle(n int) tweak       { return func(d *deployment) { d.cfg.ThrottleOutstanding = n } }

// microResult is one micro-benchmark measurement.
type microResult struct {
	Kind    rpc.Kind
	Lat     *stats.Latency
	Elapsed time.Duration
	Ops     int
	// SenderSW and ReceiverSW are cumulative host software times divided
	// by Ops (Fig. 20 raw material).
	SenderSW   time.Duration
	ReceiverSW time.Duration
}

// KOPS returns throughput in the paper's Fig. 8 unit.
func (m microResult) KOPS() float64 {
	return stats.Throughput{Ops: m.Ops, Elapsed: m.Elapsed}.KOPS()
}

// micro runs the §5.1 micro-benchmark (closedLoop) on a fresh deployment.
func (o Options) micro(kind rpc.Kind, d *deployment, ops int, readFrac float64) microResult {
	m, err := d.mustBuild().closedLoop(kind, d, ops, readFrac)
	if err != nil {
		panic(err)
	}
	return m
}

// closedLoop runs the §5.1 micro-benchmark on c, built from d: `ops` object
// accesses with the given read fraction over a zipfian key distribution,
// spread across the deployment's senders in closed loops. A failed call
// stops the run and is returned, prefixed with its client host's name.
func (c *cluster) closedLoop(kind rpc.Kind, d *deployment, ops int, readFrac float64) (microResult, error) {
	lat := stats.NewLatency(ops)
	// The workload starts at virtual time zero: build() performs no
	// simulated work and every driver proc spawns at Time 0, so the
	// joiner's finish time is also the elapsed workload duration.
	var end sim.Time
	var callErr error
	wg := sim.NewWaitGroup(c.k)
	per := ops / d.senders
	if per == 0 {
		per = 1
	}
	for s, cli := range c.cli {
		wg.Add(1)
		client := rpc.New(kind, cli, c.engine, d.cfg)
		mix := ycsb.NewMix(readFrac, int64(d.objects), d.objSize, d.seed+uint64(s)*7919)
		c.k.Go(fmt.Sprintf("driver-%d", s), func(p *sim.Proc) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r, err := client.Call(p, mix.Next())
				if err != nil {
					if callErr == nil {
						callErr = fmt.Errorf("%s: %w", cli.Name, err)
					}
					c.k.Stop()
					return
				}
				lat.Add(r.ReadyAt.Sub(r.IssuedAt))
			}
		})
	}
	done := false
	c.k.Go("joiner", func(p *sim.Proc) {
		wg.Wait(p)
		end = p.Now()
		done = true
	})
	c.k.Run()
	if callErr != nil {
		c.k.Shutdown()
		return microResult{}, callErr
	}
	if !done {
		return microResult{}, fmt.Errorf("run did not complete (protocol stall)")
	}
	total := per * d.senders
	var cliSW time.Duration
	for _, h := range c.cli {
		cliSW += h.SWTime
	}
	return microResult{
		Kind: kind, Lat: lat, Elapsed: end.Duration(), Ops: total,
		SenderSW:   cliSW / time.Duration(total),
		ReceiverSW: c.server.SWTime / time.Duration(total),
	}, nil
}

// skip reports whether a kind cannot run a configuration (FaSST's UD MTU).
func skip(kind rpc.Kind, objSize int) bool {
	return kind == rpc.FaSST && objSize > 4096-64
}

// fmtUS formats a duration in microseconds for table output.
func fmtUS(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond))
}
