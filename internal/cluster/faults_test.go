package cluster_test

import (
	"reflect"
	"strings"
	"testing"

	"prdma/internal/cluster"
	"prdma/internal/crashcheck"
	"prdma/internal/ycsb"
)

// cellTarget is one fault × workload matrix cell as the CLI builds it: the
// CI-sized cluster crash sweep under a builtin adversary (none stays
// unfaulted) and a YCSB workload, at a point count sized for unit tests.
func cellTarget(t *testing.T, seed int64, fault string, wl ycsb.Workload) crashcheck.ClusterConfig {
	t.Helper()
	if testing.Short() {
		t.Skip("cluster sweeps are slow")
	}
	spec, err := cluster.FaultByName(fault)
	if err != nil {
		t.Fatal(err)
	}
	cfg := crashcheck.DefaultClusterConfig(seed)
	cfg.Points, cfg.SecondCrashEvery, cfg.Workload = 4, 3, wl
	if !spec.Empty() {
		cfg.Fault = &spec
	}
	return cfg
}

func sweep(t *testing.T, cfg crashcheck.ClusterConfig) crashcheck.Result {
	t.Helper()
	res, err := crashcheck.Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMatrixCellsClean sweeps a reduced adversary × workload set and
// expects every §4.2 invariant to hold at every crash point.
func TestMatrixCellsClean(t *testing.T) {
	for _, fault := range []string{"partition", "duplicate"} {
		for _, wl := range []ycsb.Workload{ycsb.A, ycsb.E} {
			res := sweep(t, cellTarget(t, 7, fault, wl))
			if res.ViolationCount != 0 {
				t.Errorf("cell %s: %d violations, first: %v", res.Target, res.ViolationCount, res.Minimal())
			}
			// The partition cells must actually have partitioned something,
			// and the duplicate cells duplicated something — an inert
			// adversary would pass vacuously.
			switch ref := res.Ref; fault {
			case "partition":
				if ref.FaultDrops == 0 {
					t.Errorf("%s: adversary dropped nothing", res.Target)
				}
				if ref.Resends == 0 {
					t.Errorf("%s: no retransmissions rode out the cut", res.Target)
				}
			case "duplicate":
				if ref.Duplicated == 0 {
					t.Errorf("%s: adversary duplicated nothing", res.Target)
				}
			}
		}
	}
}

// TestMatrixDeterministic runs a faulted cell at 1 and 4 engine workers
// and expects identical results: the whole sweep is a pure function of the
// seed, whatever the worker count, because every link draws its faults
// from its own stream.
func TestMatrixDeterministic(t *testing.T) {
	cfg := cellTarget(t, 11, "chaos", ycsb.B)
	cfg.Workers = 1
	a := sweep(t, cfg)
	cfg.Workers = 4
	b := sweep(t, cfg)
	if a.Ref.FaultDrops == 0 || a.Ref.Duplicated == 0 {
		t.Fatalf("chaos cell injected nothing: %+v", a.Ref)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("workers 1 and 4 disagree:\n%+v\n%+v", a, b)
	}
}

// TestMatrixMutantsDetected seeds each known bug class and expects the
// sweep to catch it in at least one cell — the checker's checker.
func TestMatrixMutantsDetected(t *testing.T) {
	for _, mutant := range []string{"ackbug", "resurrect"} {
		total := 0
		for _, fault := range []string{"none", "partition"} {
			cfg := cellTarget(t, 7, fault, ycsb.A)
			// The ackbug window (ACK issued at DMA completion, crash before
			// the media persist lands) is narrow; give the sweep the full
			// crash-point budget so at least one point falls inside it.
			cfg.Points, cfg.Mutant = 12, mutant
			total += sweep(t, cfg).ViolationCount
		}
		if total == 0 {
			t.Errorf("mutant %q survived the matrix undetected", mutant)
		}
	}
}

// TestFaultByName resolves every builtin adversary, validates it, and
// checks each endpoint prefix it names matches a host of the sweep's
// deployment, so no cut or gray failure is silently inert.
func TestFaultByName(t *testing.T) {
	p := cluster.DefaultParams()
	p.Shards, p.Gateways = 2, 1
	c, err := cluster.NewPartitioned(1, p)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Eng.Shutdown()
	hosts := []string{c.Gateways[0].Host.Name}
	for _, grp := range c.Groups {
		for _, rep := range grp.Replicas {
			hosts = append(hosts, rep.Host.Name)
		}
	}
	matches := func(prefix string) bool {
		for _, h := range hosts {
			if strings.HasPrefix(h, prefix) {
				return true
			}
		}
		return false
	}
	for _, name := range cluster.FaultNames() {
		f, err := cluster.FaultByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Validate(); err != nil {
			t.Errorf("builtin fault %q invalid: %v", name, err)
		}
		var prefixes []string
		for _, cut := range f.Partitions {
			prefixes = append(prefixes, cut.From, cut.To)
		}
		for _, g := range f.Gray {
			prefixes = append(prefixes, g.Endpoint)
		}
		for _, b := range f.Bursts {
			prefixes = append(prefixes, b.To)
		}
		for _, prefix := range prefixes {
			if !matches(prefix) {
				t.Errorf("builtin fault %q names %q, which matches no host of %v", name, prefix, hosts)
			}
		}
	}
	if _, err := cluster.FaultByName("nope"); err == nil {
		t.Fatal("unknown fault should be rejected")
	}
}
