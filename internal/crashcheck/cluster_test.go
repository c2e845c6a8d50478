package crashcheck

import (
	"fmt"
	"strings"
	"testing"

	"prdma/internal/ycsb"
)

// sweepCfg returns a reduced cluster sweep on an engine of the given worker
// count (0 = 1).
func sweepCfg(t *testing.T, seed int64, points, secondEvery, workers int) ClusterConfig {
	t.Helper()
	if testing.Short() {
		t.Skip("cluster sweep is seconds-long")
	}
	cfg := DefaultClusterConfig(seed)
	cfg.Points = points
	cfg.SecondCrashEvery = secondEvery
	cfg.Workers = workers
	return cfg
}

// sameOutcome compares the coordinate-independent summary of two sweeps.
func sameOutcome(a, b Result) bool {
	return a.Points == b.Points && a.Events == b.Events && a.Failovers == b.Failovers &&
		a.Resyncs == b.Resyncs && a.Shipped == b.Shipped && a.Replayed == b.Replayed &&
		a.PMFull == b.PMFull && a.ViolationCount == b.ViolationCount
}

// TestClusterSweepClean sweeps a reduced point set over the cluster
// failover/resync path at one and two engine workers: no acknowledged write
// may be lost and replicas must converge byte-identically at every crash
// placement.
func TestClusterSweepClean(t *testing.T) {
	for _, tc := range []struct{ workers, points int }{{0, 12}, {2, 8}} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			res := mustSweep(t, sweepCfg(t, 1, tc.points, 4, tc.workers))
			if res.ViolationCount != 0 {
				for _, v := range res.Violations {
					t.Error(v)
				}
				t.Fatalf("%d violations over %d points (minimal: %v)",
					res.ViolationCount, res.Points, res.Minimal())
			}
			if res.Points != tc.points {
				t.Fatalf("swept %d points, want %d", res.Points, tc.points)
			}
			if res.Failovers == 0 {
				t.Fatal("no crash was ever detected — the sweep tested nothing")
			}
			if res.Resyncs == 0 {
				t.Fatal("no resync completed — readmission path untested")
			}
			if res.Shipped == 0 {
				t.Fatal("log shipping never ran")
			}
		})
	}
}

// TestClusterSweepDeterministic replays the same sweep twice and expects
// identical outcomes (window count, controller work, violations).
func TestClusterSweepDeterministic(t *testing.T) {
	cfg := sweepCfg(t, 7, 3, 0, 0)
	a := mustSweep(t, cfg)
	b := mustSweep(t, cfg)
	if !sameOutcome(a, b) {
		t.Fatalf("sweep not deterministic:\n  a=%+v\n  b=%+v", a, b)
	}
}

// TestPartitionedSweepWorkerStable pins the window coordinate's claim: the
// same sweep at different worker counts crashes at the same windows, drives
// the same failover work, and reaches the same verdicts — a violation found
// under parallel execution replays serially from its (seed, window) pair.
func TestPartitionedSweepWorkerStable(t *testing.T) {
	cfg := sweepCfg(t, 7, 3, 0, 1)
	a := mustSweep(t, cfg)
	cfg.Workers = 4
	b := mustSweep(t, cfg)
	if !sameOutcome(a, b) {
		t.Fatalf("sweep not worker-count-stable:\n  workers=1 %+v\n  workers=4 %+v", a, b)
	}
}

// TestClusterMutantsCaught seeds both known bug classes and expects the
// sweep to flag each within a handful of points, at one and two engine
// workers. The one-worker cases take CI's one-worker gate settings, whose
// point counts follow each mutant's catch rate over seeds 1-10
// (EXPERIMENTS.md): ackbug at 1 KiB objects (at 64 B an entry's
// ack-before-durable window is well under a microsecond) is caught at
// about 0.10 points in 1, so 64 points; resurrect at about 0.19, so 24.
// The two-worker resurrect case sweeps 12 points: its 6 catch nothing.
func TestClusterMutantsCaught(t *testing.T) {
	for _, workers := range []int{0, 2} {
		for _, mutant := range []string{"ackbug", "resurrect"} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, mutant), func(t *testing.T) {
				cfg := sweepCfg(t, 3, 6, 0, workers)
				cfg.Mutant = mutant
				switch {
				case workers == 0 && mutant == "ackbug":
					cfg.Seed, cfg.Points, cfg.ObjSize = 6, 64, 1024
				case workers == 0:
					cfg.Points = 24
				case mutant == "resurrect":
					cfg.Points = 12
				}
				res := mustSweep(t, cfg)
				if res.ViolationCount == 0 {
					t.Fatalf("seeded %q mutant survived %d crash points undetected", mutant, res.Points)
				}
				t.Logf("%d violations over %d points", res.ViolationCount, res.Points)
			})
		}
	}
}

// TestResurrectMutantResyncs pins what the resurrect mutant seeds: resync
// ships images before the pool's logs replay, and it still completes, so
// the sweep catches the mutant by what replay lands over the shipped
// images (divergence), not by a readmission that never happens.
func TestResurrectMutantResyncs(t *testing.T) {
	cfg := sweepCfg(t, 3, 24, 6, 0)
	cfg.Mutant = "resurrect"
	res := mustSweep(t, cfg)
	if res.Resyncs < int64(res.Points) {
		t.Errorf("%d resyncs completed over %d crash points", res.Resyncs, res.Points)
	}
	for _, v := range res.Violations {
		if strings.Contains(v.Msg, "not healthy at horizon") {
			t.Errorf("resync never readmitted the victim: %v", v)
		}
	}
	if res.ViolationCount == 0 {
		t.Fatal("seeded resurrect mutant survived undetected")
	}
}

// TestPartitionedSweepYCSB runs a YCSB mix: the sweep is clean and
// worker-count-stable like the plain mix.
func TestPartitionedSweepYCSB(t *testing.T) {
	cfg := sweepCfg(t, 7, 3, 0, 1)
	cfg.Workload = ycsb.A
	a := mustSweep(t, cfg)
	if a.ViolationCount != 0 {
		t.Fatalf("%d violations (minimal: %v)", a.ViolationCount, a.Minimal())
	}
	cfg.Workers = 4
	b := mustSweep(t, cfg)
	if !sameOutcome(a, b) {
		t.Fatalf("YCSB sweep not worker-count-stable:\n  workers=1 %+v\n  workers=4 %+v", a, b)
	}
}
