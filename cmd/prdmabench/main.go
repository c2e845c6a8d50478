// Command prdmabench regenerates the paper's tables and figures on the
// simulated testbed. Each figure prints the same rows/series the paper
// reports, with a note recalling the published expectation.
//
// Usage:
//
//	prdmabench -fig 8          # one figure (8..20)
//	prdmabench -table 2        # Table 2
//	prdmabench -ablation all   # design-choice ablations
//	prdmabench -all            # everything
//	prdmabench -all -scale full    # the paper's exact workload sizes
//	prdmabench -all -parallel 1    # force sequential cells (default: one worker per CPU)
//	prdmabench -fig 8 -cpuprofile cpu.pprof   # profile the harness itself
//	prdmabench -crashcheck         # crash-point sweep over every durable RPC family
//	prdmabench -crashcheck -family WFlush -points 50 -torn 10   # short smoke sweep
//	prdmabench -crashcheck -mutant ackbug -objsize 16384   # demo: catch the §2.4 premature-ack bug (exit 1)
//	prdmabench -cluster            # sharded replicated KV: failover figure (4 shards x 3 replicas)
//	prdmabench -cluster -shards 8 -replicas 5 -scale full       # bigger deployment
//	prdmabench -crashcheck -cluster -points 20   # crash-point sweep over the cluster failover/resync path (2 shards x 3 replicas unless -shards/-replicas say otherwise)
//	prdmabench -crashcheck -cluster -simpar 4 -points 12   # the same sweep on 4 engine workers
//	prdmabench -crashcheck -cluster -mutant ackbug   # cluster mutant-detection check (expect exit 1)
//	prdmabench -crashcheck -cluster -faults all -workloads ABCDEF -points 12   # fault x YCSB matrix: one cluster sweep per cell
//	prdmabench -crashcheck -cluster -faults partition,gray -workloads AB -points 6   # reduced cell set
//	prdmabench -parscale           # parallel-kernel scaling ladder + 1M-client open-loop smoke
//	prdmabench -parscale -simpar 4 -logclients 1000000 -json ladder.json   # also write the ladder as JSON
//	prdmabench -pmpool             # remote PM pool: alloc grid + disaggregated shuffle figures
//	prdmabench -crashcheck -pmpool -points 60 -torn 12   # pool crash-point sweep (alloc/free/write invariants)
//	prdmabench -crashcheck -pmpool -mutant leak   # seeded leak bug: the sweep must catch it (exit 1)
//
// -simpar is the engine worker count of -crashcheck -cluster (faulted cells
// included) and the -parscale smoke. Every cluster run is one gateway and
// its shard groups on the engine's kernels; the cluster sweep crashes at
// lookahead-window barriers, whose indices are worker-count-stable, so a
// minimal repro replays at any -simpar. The figure drivers, -cluster
// included (one worker), accept -simpar as a no-op so harnesses can pass it
// uniformly; a negative value exits 2.
//
// Experiment cells and crash-sweep targets are independent deployments, so
// they fan out across a worker pool (-parallel). Output is byte-identical at
// any setting; only wall time changes.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"prdma/internal/bench"
)

// validateModes rejects flag combinations instead of silently running one
// mode and ignoring the rest: every pair of driver modes is mutually
// exclusive, except -crashcheck with -cluster or -pmpool, which select
// *which* crash sweep runs; -faults and -workloads shape cluster sweep cells
// only, and -json writes the -parscale report only.
func validateModes(flagSet map[string]bool) error {
	conflicts := [][2]string{
		{"pmpool", "parscale"}, {"pmpool", "cluster"},
		{"pmpool", "fig"}, {"pmpool", "table"}, {"pmpool", "ablation"}, {"pmpool", "all"},
		{"parscale", "crashcheck"}, {"parscale", "cluster"},
		{"parscale", "fig"}, {"parscale", "table"}, {"parscale", "ablation"}, {"parscale", "all"},
		{"crashcheck", "fig"}, {"crashcheck", "table"}, {"crashcheck", "ablation"}, {"crashcheck", "all"},
	}
	for _, c := range conflicts {
		if flagSet[c[0]] && flagSet[c[1]] {
			return fmt.Errorf("-%s and -%s are mutually exclusive (run them separately)", c[0], c[1])
		}
	}
	for _, f := range []string{"faults", "workloads"} {
		if flagSet[f] && !(flagSet["crashcheck"] && flagSet["cluster"]) {
			return fmt.Errorf("-%s selects cluster sweep cells: it needs -crashcheck -cluster", f)
		}
	}
	if flagSet["json"] && !flagSet["parscale"] {
		return fmt.Errorf("-json writes the -parscale report: it needs -parscale")
	}
	return nil
}

func main() {
	fig := flag.Int("fig", 0, "figure number to reproduce (7..20; 7 = the §4.4 case study)")
	table := flag.Int("table", 0, "table number to reproduce (2)")
	ablation := flag.String("ablation", "", "ablation to run: flush|ddio|workers|throttle|replication|table1|all")
	all := flag.Bool("all", false, "run every experiment")
	scale := flag.String("scale", "default", "workload scale: quick|default|full")
	ops := flag.Int("ops", 0, "override operations per configuration")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	parallel := flag.Int("parallel", -1, "concurrent experiment cells per figure, or crash-sweep targets (1 = sequential, -1 = one per CPU); output is identical at any setting")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	jsonOut := flag.String("json", "", "parscale: write the ladder and the smoke to this JSON file")
	sf := newSweepFlags(flag.CommandLine)
	parscale := flag.Bool("parscale", false, "run the parallel-kernel scaling ladder (workers 1/2/4/8 over the 8-shard partitioned cluster) plus the open-loop population smoke")
	logclients := flag.Int("logclients", 1_000_000, "parscale: logical client population for the open-loop smoke")
	flag.Parse()
	flagSet := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { flagSet[f.Name] = true })
	if err := validateModes(flagSet); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := sf.shape(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// heapProfile ends every mode that did not exit early.
	heapProfile := func() {
		if *memprofile == "" {
			return
		}
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *sf.crashcheck {
		crashcheckMain(sf, *parallel)
		// Reached only on a clean sweep (violations exit nonzero above).
		heapProfile()
		return
	}

	var o bench.Options
	switch *scale {
	case "quick":
		o = bench.Quick()
	case "full":
		o = bench.Full()
	case "default":
		o = bench.Default()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *ops > 0 {
		o.Ops = *ops
	}
	o.Seed = *sf.seed
	o.Parallel = *parallel

	if *parscale {
		parscaleMain(o, *scale, *sf.simpar, *logclients, *jsonOut, *csv)
		heapProfile()
		return
	}

	run := func(name string, fn func() []bench.Table) {
		start := time.Now()
		for _, t := range fn() {
			if *csv {
				fmt.Printf("# %s\n", t.Title)
				if err := t.CSV(os.Stdout); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Println()
			} else {
				t.Fprint(os.Stdout)
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
	one := func(fn func() bench.Table) func() []bench.Table {
		return func() []bench.Table { return []bench.Table{fn()} }
	}

	figs := map[int]func() []bench.Table{
		7:  one(o.Fig7CaseStudy),
		8:  o.Fig8,
		9:  o.Fig9,
		10: one(o.Fig10),
		11: one(o.Fig11),
		12: one(o.Fig12),
		13: one(o.Fig13),
		14: one(o.Fig14),
		15: one(o.Fig15),
		16: one(o.Fig16),
		17: one(o.Fig17),
		18: one(o.Fig18),
		19: one(o.Fig19),
		20: one(o.Fig20),
	}
	ablations := map[string]func() []bench.Table{
		"flush":       one(o.AblationNativeFlush),
		"ddio":        one(o.AblationDDIO),
		"workers":     one(o.AblationWorkers),
		"throttle":    one(o.AblationThrottle),
		"replication": one(o.Replication),
		"table1":      one(o.Table1Extras),
	}

	ran := false
	if *sf.pmpool {
		run("pmpool", o.PMPoolFigures)
		ran = true
	}
	if *sf.cluster {
		run("cluster", func() []bench.Table { return o.ClusterFigures(*sf.shards, *sf.replicas) })
		ran = true
	}
	if *fig != 0 {
		fn, ok := figs[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "no such figure: %d\n", *fig)
			os.Exit(2)
		}
		run(fmt.Sprintf("fig %d", *fig), fn)
		ran = true
	}
	if *table == 2 {
		run("table 2", one(o.Table2))
		ran = true
	} else if *table != 0 {
		fmt.Fprintf(os.Stderr, "no such table: %d (Table 1 is the taxonomy in the README)\n", *table)
		os.Exit(2)
	}
	if *ablation != "" {
		if *ablation == "all" {
			for _, name := range []string{"flush", "ddio", "workers", "throttle", "replication", "table1"} {
				run("ablation "+name, ablations[name])
			}
		} else if fn, ok := ablations[*ablation]; ok {
			run("ablation "+*ablation, fn)
		} else {
			fmt.Fprintf(os.Stderr, "no such ablation: %s\n", *ablation)
			os.Exit(2)
		}
		ran = true
	}
	if *all {
		for i := 7; i <= 20; i++ {
			run(fmt.Sprintf("fig %d", i), figs[i])
		}
		run("table 2", one(o.Table2))
		for _, name := range []string{"flush", "ddio", "workers", "throttle", "replication", "table1"} {
			run("ablation "+name, ablations[name])
		}
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	heapProfile()
}

// writeHeapProfile records the live heap at end of run (-memprofile),
// running a GC first so the profile reflects retained memory, not garbage.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
