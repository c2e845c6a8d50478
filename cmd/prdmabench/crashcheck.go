package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"prdma/internal/bench"
	"prdma/internal/crashcheck"
	"prdma/internal/fabric"
	"prdma/internal/rpc"
	"prdma/internal/scenario"
	"prdma/internal/ycsb"
)

// sweepFlags are the flags that select and shape a crash sweep. main
// registers them on the command line (other modes share -seed, -points,
// -shards, -replicas, -simpar and -mutant), and every repro line parses
// back through them.
type sweepFlags struct {
	fs                                              *flag.FlagSet
	crashcheck, cluster, pmpool                     *bool
	family, mix, mutant, faults, workloads          *string
	seed                                            *uint64
	points, torn, objsize, shards, replicas, simpar *int
}

func newSweepFlags(fs *flag.FlagSet) *sweepFlags {
	return &sweepFlags{
		fs:         fs,
		crashcheck: fs.Bool("crashcheck", false, "sweep crash points over the durable-RPC recovery path (or, with -cluster or -pmpool, that target's) and check invariants"),
		cluster:    fs.Bool("cluster", false, "run the sharded replicated-KV failover figure (or, with -crashcheck, the cluster crash-point sweep)"),
		pmpool:     fs.Bool("pmpool", false, "run the remote PM pool figures (or, with -crashcheck, the pool crash-point sweep)"),
		family:     fs.String("family", "", "crashcheck: restrict to one RPC family (substring, e.g. WFlush or S-RFlush)"),
		mix:        fs.String("mix", "", "crashcheck: restrict to one traffic mix (writes|readwrite|batch)"),
		mutant:     fs.String("mutant", "", "crashcheck: seed a known bug class the sweep must catch (exit 1): ackbug (durable RPC, cluster), resurrect (cluster) or leak (pmpool)"),
		faults:     fs.String("faults", "", "crashcheck -cluster: comma-separated fabric adversaries, one sweep per (fault, workload) cell (all = every builtin: "+strings.Join(scenario.FaultNames(), ",")+")"),
		workloads:  fs.String("workloads", "", "crashcheck -cluster: YCSB workload letters for the cells, e.g. ADF (default: the 70/30 mix)"),
		seed:       fs.Uint64("seed", 1, "random seed"),
		points:     fs.Int("points", 300, "crashcheck: event-boundary crash points per family/mix cell"),
		torn:       fs.Int("torn", 40, "crashcheck: additional mid-persist (torn-write) crash points per cell"),
		objsize:    fs.Int("objsize", 0, "crashcheck: per-request object bytes (0 = harness default)"),
		shards:     fs.Int("shards", 4, "cluster: number of shard groups (a -crashcheck -cluster sweep uses 2 unless this is given)"),
		replicas:   fs.Int("replicas", 3, "cluster: replication factor per shard"),
		simpar:     fs.Int("simpar", 0, "parallel simulation workers for partitioned runs (0 = one kernel; with -crashcheck -cluster, N>0 crashes at window barriers on the partitioned engine instead of at event indices)"),
	}
}

// targets builds the sweep targets the parsed flags select: with -cluster
// one cluster per (fault, workload) cell, faults outer (one unfaulted cell
// without -faults, one default-mix cell per fault without -workloads), with
// -pmpool one pool (WFlush unless -family picks another family), else one
// durable-RPC target per matching (family, mix) cell. -points, -torn,
// -shards and -replicas override the cluster and pool defaults only when
// given.
func (f *sweepFlags) targets() ([]crashcheck.Target, error) {
	set := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	seed := int64(*f.seed)
	var kinds []rpc.Kind
	for _, k := range rpc.DurableKinds {
		if strings.Contains(strings.ToLower(k.String()), strings.ToLower(*f.family)) {
			kinds = append(kinds, k)
		}
	}
	switch {
	case *f.cluster:
		faults, err := f.faultSpecs()
		if err != nil {
			return nil, err
		}
		wls := []ycsb.Workload{0}
		if *f.workloads != "" {
			if wls, err = scenario.ParseWorkloads(*f.workloads); err != nil {
				return nil, err
			}
		}
		base := crashcheck.DefaultClusterConfig(seed)
		if set["points"] && *f.points > 0 {
			base.Points = *f.points
		}
		if set["shards"] {
			base.Shards = *f.shards
		}
		if set["replicas"] {
			base.Replicas = *f.replicas
		}
		base.Workers, base.Mutant = *f.simpar, *f.mutant
		if *f.objsize > 0 {
			base.ObjSize = *f.objsize
		}
		var ts []crashcheck.Target
		for _, fault := range faults {
			for _, wl := range wls {
				cfg := base
				cfg.Fault, cfg.Workload = fault, wl
				ts = append(ts, cfg)
			}
		}
		return ts, nil
	case *f.pmpool:
		if len(kinds) == 0 {
			return nil, fmt.Errorf("crashcheck: no durable family matches -family %q", *f.family)
		}
		kind := rpc.WFlushRPC
		if *f.family != "" {
			kind = kinds[0]
		}
		cfg := crashcheck.DefaultPMPoolConfig(kind, seed)
		if set["points"] && *f.points > 0 {
			cfg.Points = *f.points
		}
		if set["torn"] && *f.torn >= 0 {
			cfg.TornPoints = *f.torn
		}
		cfg.Mutant = *f.mutant
		return []crashcheck.Target{cfg}, nil
	}
	var ts []crashcheck.Target
	for _, kind := range kinds {
		for _, mix := range crashcheck.Mixes {
			if *f.mix != "" && mix.String() != *f.mix {
				continue
			}
			cfg := crashcheck.DefaultConfig(kind, mix, seed)
			cfg.Points, cfg.TornPoints, cfg.Mutant = *f.points, *f.torn, *f.mutant
			if *f.objsize > 0 {
				cfg.ObjSize = *f.objsize
			}
			ts = append(ts, cfg)
		}
	}
	if len(ts) == 0 {
		return nil, fmt.Errorf("crashcheck: no family matches -family %q / -mix %q", *f.family, *f.mix)
	}
	return ts, nil
}

// clusterShape rejects a -shards or -replicas value no cluster deployment
// can be built with, so -cluster exits with a message instead of a panic.
func (f *sweepFlags) clusterShape() error {
	if *f.shards <= 0 || *f.replicas <= 0 {
		return fmt.Errorf("cluster: -shards and -replicas must be positive (got %d and %d)", *f.shards, *f.replicas)
	}
	return nil
}

// faultSpecs resolves -faults: no flag is one unfaulted cell, "all" the
// builtin library. An empty spec ("none") stays a nil Fault, so its cell
// runs the unfaulted deployment.
func (f *sweepFlags) faultSpecs() ([]*fabric.FaultSpec, error) {
	if *f.faults == "" {
		return []*fabric.FaultSpec{nil}, nil
	}
	names := strings.Split(*f.faults, ",")
	if *f.faults == "all" {
		names = scenario.FaultNames()
	}
	var out []*fabric.FaultSpec
	for _, name := range names {
		spec, err := scenario.FaultByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		if spec.Empty() {
			out = append(out, nil)
		} else {
			out = append(out, &spec)
		}
	}
	return out, nil
}

// repro renders the flags that sweep exactly the target t again.
func repro(t crashcheck.Target) string {
	family := func(k rpc.Kind) string { return strings.TrimSuffix(k.String(), "-RPC") }
	var s, mutant string
	switch c := t.(type) {
	case crashcheck.Config:
		s = fmt.Sprintf("-crashcheck -family %s -mix %s -seed %d -points %d -torn %d -objsize %d",
			family(c.Kind), c.Mix, c.Seed, c.Points, c.TornPoints, c.ObjSize)
		mutant = c.Mutant
	case crashcheck.ClusterConfig:
		s = fmt.Sprintf("-crashcheck -cluster -simpar %d -seed %d -points %d -shards %d -replicas %d -objsize %d",
			c.Workers, c.Seed, c.Points, c.Shards, c.Replicas, c.ObjSize)
		if c.Fault != nil {
			s += " -faults " + c.Fault.Name
		}
		if c.Workload != 0 {
			s += " -workloads " + c.Workload.String()
		}
		mutant = c.Mutant
	case crashcheck.PMPoolConfig:
		s = fmt.Sprintf("-crashcheck -pmpool -family %s -seed %d -points %d -torn %d",
			family(c.Kind), c.Seed, c.Points, c.TornPoints)
		mutant = c.Mutant
	}
	if mutant != "" {
		s += " -mutant " + mutant
	}
	return s
}

// runCrashcheck sweeps every target on a bench.Runner of `parallel`
// workers (negative: one per CPU), prints one summary line per target in
// target order — a cluster's carries its crash-free reference row — and, on
// any invariant violation, the violations plus the minimal reproduction
// (the target's flags and the earliest crash point). Returns the number of
// targets with violations, or the first target's error.
func runCrashcheck(w io.Writer, targets []crashcheck.Target, parallel int) (int, error) {
	results := make([]crashcheck.Result, len(targets))
	errs := make([]error, len(targets))
	bench.NewRunner(parallel).Do(len(targets), func(i int) {
		results[i], errs[i] = crashcheck.Sweep(targets[i])
	})
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}

	bad := 0
	for i, res := range results {
		fmt.Fprintf(w, "%-22s seed=%-4d points=%-4d %ss=%-6d replays=%-5d failovers=%-4d resyncs=%-4d shipped=%-5d pmfull=%-4d ",
			res.Target, res.Seed, res.Points, res.Coord, res.Events, res.Replayed,
			res.Failovers, res.Resyncs, res.Shipped, res.PMFull)
		if _, ok := targets[i].(crashcheck.ClusterConfig); ok {
			fmt.Fprintf(w, "%v ", res.Ref)
		}
		fmt.Fprintf(w, "violations=%d\n", res.ViolationCount)
		if res.ViolationCount == 0 {
			continue
		}
		bad++
		for _, v := range res.Violations {
			fmt.Fprintf(w, "  VIOLATION %v\n", v)
		}
		if res.ViolationCount > len(res.Violations) {
			fmt.Fprintf(w, "  ... %d further violations truncated\n", res.ViolationCount-len(res.Violations))
		}
		min := res.Minimal()
		fmt.Fprintf(w, "  minimal repro: %s  at {%s} (t=%v)\n", repro(targets[i]), min.Where(), min.At)
	}
	return bad, nil
}

// crashcheckMain is the -crashcheck entry point. It exits 2 when the flags
// select no target or a mutant a target does not have, and 1 when any
// sweep finds a violation.
func crashcheckMain(f *sweepFlags, parallel int) {
	start := time.Now()
	targets, err := f.targets()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	bad, err := runCrashcheck(os.Stdout, targets, parallel)
	fmt.Fprintf(os.Stderr, "[crashcheck done in %v]\n", time.Since(start).Round(time.Millisecond))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "crashcheck: %d sweep(s) violated crash-consistency invariants\n", bad)
		os.Exit(1)
	}
}
