package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"prdma/internal/crashcheck"
	"prdma/internal/rpc"
)

// crashcheckOptions selects which sweeps `prdmabench -crashcheck` runs.
type crashcheckOptions struct {
	family   string // substring match against the family name, "" = all
	mix      string // exact mix name, "" = all
	points   int    // event-boundary crash points per (family, mix) cell
	torn     int    // additional mid-persist (torn-write) points per cell
	seed     int64
	parallel int
	// ackBug re-introduces the §2.4 premature-ack bug (flush ACK at DMA
	// placement instead of the durability horizon) so the sweep's catch —
	// lost acked writes with a minimal reproduction — can be demonstrated.
	ackBug bool
	// objSize overrides the per-request object size (0 = harness default).
	// Large objects widen the placement→durability gap the ack bug exposes.
	objSize int
}

// runCrashcheck sweeps crash points over every selected durable-RPC family
// and traffic mix, prints one summary line per cell, and — on any invariant
// violation — prints the violations plus the minimal reproduction recipe
// (seed + crash point). Returns the number of cells with violations.
func runCrashcheck(w io.Writer, o crashcheckOptions) int {
	type cell struct {
		kind rpc.Kind
		mix  crashcheck.Mix
	}
	var cells []cell
	for _, kind := range rpc.DurableKinds {
		if o.family != "" && !strings.Contains(
			strings.ToLower(kind.String()), strings.ToLower(o.family)) {
			continue
		}
		for _, mix := range crashcheck.Mixes {
			if o.mix != "" && mix.String() != o.mix {
				continue
			}
			cells = append(cells, cell{kind, mix})
		}
	}
	if len(cells) == 0 {
		fmt.Fprintf(os.Stderr, "crashcheck: no family matches -family %q / -mix %q\n", o.family, o.mix)
		os.Exit(2)
	}

	workers := o.parallel
	if workers <= 0 || workers > len(cells) {
		workers = len(cells)
	}
	results := make([]crashcheck.Result, len(cells))
	var wg sync.WaitGroup
	next := make(chan int)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				cfg := crashcheck.DefaultConfig(cells[idx].kind, cells[idx].mix, o.seed)
				cfg.Points = o.points
				cfg.TornPoints = o.torn
				cfg.AckBeforeDurable = o.ackBug
				if o.objSize > 0 {
					cfg.ObjSize = o.objSize
				}
				results[idx] = crashcheck.Sweep(cfg)
			}
		}()
	}
	for idx := range cells {
		next <- idx
	}
	close(next)
	wg.Wait()

	bad := 0
	for _, res := range results {
		fmt.Fprintf(w, "%-13v %-9v seed=%-4d points=%-4d events=%-6d replays=%-5d violations=%d\n",
			res.Kind, res.Mix, res.Seed, res.Points, res.Events, res.Replayed, res.ViolationCount)
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
		if min := res.Minimal(); min != nil {
			cmd := fmt.Sprintf("-crashcheck -family %s -mix %s -seed %d -points %d -torn %d",
				strings.TrimSuffix(min.Kind.String(), "-RPC"), min.Mix, min.Seed, o.points, o.torn)
			if o.ackBug {
				cmd += " -ackbug"
			}
			if o.objSize > 0 {
				cmd += fmt.Sprintf(" -objsize %d", o.objSize)
			}
			fmt.Fprintf(w, "  minimal repro: %s  crash at {%v} (t=%v)\n", cmd, min.Point, min.At)
		}
	}
	return bad
}

// clusterCrashcheckMain is the `-crashcheck -cluster [-simpar N]` entry
// point: a crash-point sweep over the cluster failover/resync path. One
// replica crashes at every sampled point (periodically a second replica of
// the same shard fails during the first resync); no acknowledged write may
// be lost and live replicas must converge byte-identically. Without
// -simpar, points are event indices on the one-kernel deployment; with
// -simpar N they are lookahead-window indices on the partitioned engine,
// which are worker-count-stable, so the minimal repro replays at -simpar 1.
// Exits non-zero on any violation.
func clusterCrashcheckMain(seed int64, points, shards, replicas, objSize, workers int, mutant string) {
	start := time.Now()
	cfg := crashcheck.DefaultClusterConfig(seed)
	if points > 0 {
		cfg.Points = points
	}
	cfg.Shards = shards
	cfg.Replicas = replicas
	if objSize > 0 {
		cfg.ObjSize = objSize
	}
	cfg.Workers = workers
	cfg.Mutant = mutant
	res, err := crashcheck.ClusterSweep(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	coord, simpar := "events", ""
	if workers > 0 {
		coord, simpar = "windows", " -simpar 1"
	}
	fmt.Printf("cluster %dx%d seed=%-4d workers=%d points=%-4d %s=%-6d failovers=%-4d resyncs=%-4d replays=%-5d shipped=%-5d pmfull=%-4d violations=%d\n",
		cfg.Shards, cfg.Replicas, res.Seed, res.Workers, res.Points, coord, res.Events,
		res.Failovers, res.Resyncs, res.Replayed, res.Shipped, res.PMFull, res.ViolationCount)
	for _, v := range res.Violations {
		fmt.Printf("  VIOLATION %v\n", v)
	}
	if res.ViolationCount > len(res.Violations) {
		fmt.Printf("  ... %d further violations truncated\n", res.ViolationCount-len(res.Violations))
	}
	if min := res.Minimal(); min != nil {
		repro := fmt.Sprintf("-crashcheck -cluster%s -seed %d -points %d -shards %d -replicas %d",
			simpar, min.Seed, cfg.Points, cfg.Shards, cfg.Replicas)
		if mutant != "" {
			repro += " -mutant " + mutant
		}
		crash := fmt.Sprintf("{%v}", min.Point)
		if workers > 0 {
			crash = fmt.Sprintf("window %d", min.Point.Event)
		}
		fmt.Printf("  minimal repro: %s  crash at %s (t=%v)\n", repro, crash, min.At)
	}
	fmt.Fprintf(os.Stderr, "[cluster crashcheck done in %v]\n", time.Since(start).Round(time.Millisecond))
	if res.ViolationCount > 0 {
		fmt.Fprintf(os.Stderr, "crashcheck: cluster sweep violated failover invariants\n")
		os.Exit(1)
	}
}

// pmpoolCrashcheckMain is the `-crashcheck -pmpool` entry point: a
// crash-point sweep over the remote PM pool's alloc/free/write/lease path.
// Every point asserts the pool's crash contract — no slot leaks, no double
// seating, no acked free resurrects, no acked write loses its bytes, and
// orphaned allocations are bounded by lease reclamation. Exits non-zero on
// any violation; -mutant leak seeds the known bug the sweep must catch.
func pmpoolCrashcheckMain(seed int64, points, torn int, family, mutant string) {
	start := time.Now()
	kind := rpc.WFlushRPC
	if family != "" {
		found := false
		for _, k := range rpc.DurableKinds {
			if strings.Contains(strings.ToLower(k.String()), strings.ToLower(family)) {
				kind, found = k, true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "crashcheck: no durable family matches -family %q\n", family)
			os.Exit(2)
		}
	}
	cfg := crashcheck.DefaultPMPoolConfig(kind, seed)
	if points > 0 {
		cfg.Points = points
	}
	if torn >= 0 {
		cfg.TornPoints = torn
	}
	cfg.Mutant = mutant
	res := crashcheck.PMPoolSweep(cfg)
	fmt.Printf("pmpool %-13v seed=%-4d points=%-4d events=%-6d replays=%-5d violations=%d\n",
		res.Kind, res.Seed, res.Points, res.Events, res.Replayed, res.ViolationCount)
	for _, v := range res.Violations {
		fmt.Printf("  VIOLATION %v\n", v)
	}
	if res.ViolationCount > len(res.Violations) {
		fmt.Printf("  ... %d further violations truncated\n", res.ViolationCount-len(res.Violations))
	}
	if min := res.Minimal(); min != nil {
		cmd := fmt.Sprintf("-crashcheck -pmpool -family %s -seed %d -points %d -torn %d",
			strings.TrimSuffix(min.Kind.String(), "-RPC"), min.Seed, cfg.Points, cfg.TornPoints)
		if mutant != "" {
			cmd += " -mutant " + mutant
		}
		fmt.Printf("  minimal repro: %s  crash at {%v} (t=%v)\n", cmd, min.Point, min.At)
	}
	fmt.Fprintf(os.Stderr, "[pmpool crashcheck done in %v]\n", time.Since(start).Round(time.Millisecond))
	if res.ViolationCount > 0 {
		fmt.Fprintf(os.Stderr, "crashcheck: pmpool sweep violated pool crash invariants\n")
		os.Exit(1)
	}
}

// crashcheckMain is the -crashcheck entry point; it exits non-zero when
// any sweep finds a violation.
func crashcheckMain(o crashcheckOptions) {
	start := time.Now()
	bad := runCrashcheck(os.Stdout, o)
	fmt.Fprintf(os.Stderr, "[crashcheck done in %v]\n", time.Since(start).Round(time.Millisecond))
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "crashcheck: %d sweep(s) violated crash-consistency invariants\n", bad)
		os.Exit(1)
	}
}
