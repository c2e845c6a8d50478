package crashcheck

import (
	"reflect"
	"strings"
	"testing"

	"prdma/internal/rpc"
	"prdma/internal/sim"
)

func mustSweep(t *testing.T, tg Target) Result {
	t.Helper()
	res, err := Sweep(tg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// replay runs one crash point on a fresh deployment the way Sweep does and
// returns the crash time, the verdict and the recovery work.
func replay(t *testing.T, tg Target, pt Point) (sim.Time, []string, Result) {
	t.Helper()
	d, err := tg.deploy()
	if err != nil {
		t.Fatal(err)
	}
	defer d.shutdown()
	var res Result
	at := d.crash(pt, 0)
	d.tally(&res)
	return at, d.verify(), res
}

// withMutant returns tg with its seeded bug set to m.
func withMutant(tg Target, m string) Target {
	switch c := tg.(type) {
	case Config:
		c.Mutant = m
		return c
	case ClusterConfig:
		c.Mutant = m
		return c
	case PMPoolConfig:
		c.Mutant = m
		return c
	}
	panic("crashcheck: unknown target type")
}

// TestTargets runs the harness's checks over its three targets: a reduced
// clean sweep finds no violation and does recovery work; the target's
// seeded mutant is caught, its minimal violation labelled with the target
// and the coordinate (or the reference run); one crash point replayed twice
// gives the same crash time, verdict and recovery work; and another
// target's mutant is rejected instead of ignored.
func TestTargets(t *testing.T) {
	rpcCfg := DefaultConfig(rpc.WFlushRPC, MixWrites, 1)
	rpcCfg.Points, rpcCfg.TornPoints = 60, 20
	rpcBug := rpcCfg
	rpcBug.ObjSize = 16384
	poolCfg := DefaultPMPoolConfig(rpc.WFlushRPC, 1)
	poolCfg.Points, poolCfg.TornPoints = 20, 5
	poolBug := poolCfg
	poolBug.Points, poolBug.TornPoints = 12, 4
	cluster := func(seed int64, points, workers int) ClusterConfig {
		cfg := DefaultClusterConfig(seed)
		cfg.Points, cfg.Workers = points, workers
		return cfg
	}
	replayed := func(r Result) int64 { return r.Replayed }
	failovers := func(r Result) int64 { return r.Failovers }
	for _, tc := range []struct {
		name          string
		clean, mutant Target
		// work is the recovery work the clean sweep must show.
		work func(Result) int64
		// minimal is a substring of the mutant sweep's minimal violation.
		minimal string
		replay  Point
		// foreign is a mutant only another target has.
		foreign string
	}{
		{"rpc", rpcCfg, withMutant(rpcBug, "ackbug"), replayed,
			"WFlush-RPC/writes seed=1 event=3644 second-crash at=", Point{Event: 2000, TornFrac: 0.5, SecondCrash: true}, "resurrect"},
		{"pmpool", poolCfg, withMutant(poolBug, "leak"), replayed,
			"pmpool/WFlush-RPC seed=1 reference run at=", Point{Event: 3000, TornFrac: 0.5, SecondCrash: true}, "ackbug"},
		{"cluster-window", cluster(2, 4, 2), withMutant(cluster(3, 6, 2), "ackbug"), failovers,
			"cluster seed=3 window=346 at=", Point{Event: 300, SecondCrash: true}, "leak"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if strings.HasPrefix(tc.name, "cluster") && testing.Short() {
				t.Skip("cluster sweep is seconds-long")
			}
			res := mustSweep(t, tc.clean)
			for _, v := range res.Violations {
				t.Errorf("violation: %v", v)
			}
			if tc.work(res) == 0 {
				t.Errorf("clean sweep over %d points did no recovery work: %+v", res.Points, res)
			}

			bug := mustSweep(t, tc.mutant)
			if min := bug.Minimal(); min == nil {
				t.Errorf("seeded mutant survived %d crash points undetected", bug.Points)
			} else if !strings.Contains(min.String(), tc.minimal) {
				t.Errorf("minimal violation %q, want it to contain %q", min, tc.minimal)
			}

			atA, va, ra := replay(t, tc.clean, tc.replay)
			atB, vb, rb := replay(t, tc.clean, tc.replay)
			if atA != atB || !reflect.DeepEqual(va, vb) || !reflect.DeepEqual(ra, rb) {
				t.Errorf("point %+v diverged on replay: at %v vs %v, verdict %q vs %q, work %+v vs %+v",
					tc.replay, atA, atB, va, vb, ra, rb)
			}

			if _, err := Sweep(withMutant(tc.clean, tc.foreign)); err == nil {
				t.Errorf("mutant %q not rejected", tc.foreign)
			}
		})
	}
	// The rpc and cluster targets stamp each object's key and version into
	// its first 16 bytes: a smaller object is an error, not a panic.
	small := rpcCfg
	small.ObjSize = 8
	smallCluster := cluster(1, 1, 0)
	smallCluster.ObjSize = 8
	for _, tgt := range []Target{small, smallCluster} {
		if _, err := Sweep(tgt); err == nil || !strings.Contains(err.Error(), "ObjSize ≥ 16") {
			t.Errorf("%s with 8-byte objects: err = %v, want an ObjSize error", tgt.plan().name, err)
		}
	}
}

// TestSweepRejectsNegativeCounts pins that a negative point or torn count
// is an error on every target, not a huge unsigned count or a default.
func TestSweepRejectsNegativeCounts(t *testing.T) {
	rpcPoints := DefaultConfig(rpc.WFlushRPC, MixWrites, 1)
	rpcPoints.Points = -3
	rpcTorn := DefaultConfig(rpc.WFlushRPC, MixWrites, 1)
	rpcTorn.TornPoints = -1
	cluster := DefaultClusterConfig(1)
	cluster.Points = -3
	pool := DefaultPMPoolConfig(rpc.WFlushRPC, 1)
	pool.TornPoints = -2
	for _, tgt := range []Target{rpcPoints, rpcTorn, cluster, pool} {
		if _, err := Sweep(tgt); err == nil || !strings.Contains(err.Error(), "negative crash-point count") {
			t.Errorf("%s: err = %v, want a negative-count error", tgt.plan().name, err)
		}
	}
}

// TestSweepClean sweeps crash points across every durable RPC family and
// traffic mix and expects zero invariant violations: acked writes survive
// every crash placement, replay is ordered, torn entries are rejected,
// and accounting reconciles after recovery.
func TestSweepClean(t *testing.T) {
	for _, kind := range rpc.DurableKinds {
		for _, mix := range Mixes {
			kind, mix := kind, mix
			t.Run(kind.String()+"/"+mix.String(), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig(kind, mix, 42)
				cfg.Points = 60
				cfg.TornPoints = 15
				res := mustSweep(t, cfg)
				if res.Points < cfg.Points {
					t.Fatalf("swept %d points, want >= %d (reference run fired %d events)",
						res.Points, cfg.Points, res.Events)
				}
				for _, v := range res.Violations {
					t.Errorf("violation: %v", v)
				}
				if res.ViolationCount > len(res.Violations) {
					t.Errorf("%d further violations truncated", res.ViolationCount-len(res.Violations))
				}
				if res.Replayed == 0 {
					t.Errorf("no crash point led to a log replay; the sweep is not exercising recovery")
				}
			})
		}
	}
}

// TestSecondCrashDuringRecoveryClean arms a second crash at every point,
// timed to land during the first recovery, and requires the sweep to stay
// clean and at least a third of those crashes to interrupt a
// re-establishment.
func TestSecondCrashDuringRecoveryClean(t *testing.T) {
	cfg := DefaultConfig(rpc.WFlushRPC, MixReadWrite, 7)
	cfg.Points = 40
	cfg.TornPoints = 10
	cfg.SecondCrashEvery = 1
	res := mustSweep(t, cfg)
	for _, v := range res.Violations {
		t.Errorf("violation: %v", v)
	}
	if res.Replayed == 0 {
		t.Errorf("no replays despite double crashes at every point")
	}

	points := pickPoints(cfg.plan(), res.Events)
	interrupted := 0
	for _, pt := range points {
		d, err := cfg.deploy()
		if err != nil {
			t.Fatal(err)
		}
		s := d.(*run).Server
		reestablish := s.Reestablish
		hit := false
		s.Reestablish = func(p *sim.Proc) (int, error) {
			n, err := reestablish(p)
			hit = hit || err != nil
			return n, err
		}
		d.crash(pt, 0)
		d.shutdown()
		if hit {
			interrupted++
		}
	}
	if interrupted*3 < len(points) {
		t.Errorf("second crashes interrupted %d of %d recoveries, want at least a third", interrupted, len(points))
	}
}

// kernel returns a single-server deployment's kernel.
func kernel(d deployment) *sim.Kernel {
	switch r := d.(type) {
	case *run:
		return r.K
	case *pmpoolRun:
		return r.K
	}
	panic("crashcheck: not a single-server deployment")
}

// TestCrashLandsOnReferenceEvent pins the event coordinate on both
// single-server targets: the reference run and a crash point build the same
// deployment, so a crash at point i fires exactly the reference run's first
// i events and lands at the simulated time the reference reached there (a
// proc started only in crash runs shifts every later event).
func TestCrashLandsOnReferenceEvent(t *testing.T) {
	for _, tg := range []Target{
		DefaultConfig(rpc.SFlushRPC, MixBatch, 5),
		DefaultPMPoolConfig(rpc.WFlushRPC, 5),
	} {
		t.Run(tg.plan().name, func(t *testing.T) {
			ref, err := tg.deploy()
			if err != nil {
				t.Fatal(err)
			}
			var res Result
			ref.reference(&res)
			ref.shutdown()
			pl := tg.plan()
			pl.points, pl.torn, pl.second = 12, 0, 0
			points := pickPoints(pl, res.Events)

			ref, _ = tg.deploy()
			defer ref.shutdown()
			k := kernel(ref)
			for _, pt := range points {
				k.RunEvents(pt.Event - k.Fired())
				d, _ := tg.deploy()
				at := d.crash(pt, 0)
				d.shutdown()
				if at != k.Now() {
					t.Errorf("crash at event %d landed at %v; the reference run reached that event at %v", pt.Event, at, k.Now())
				}
			}
		})
	}
}

// TestCoordinateEndsAtLoadDone pins the durable-RPC target's coordinate
// space: it ends at the event in which the last worker finished, so every
// picked point crashes the server with work still outstanding, not the
// idle retransmit-timer tail that follows.
func TestCoordinateEndsAtLoadDone(t *testing.T) {
	for _, mix := range Mixes {
		cfg := DefaultConfig(rpc.WRFlushRPC, mix, 3)
		d, _ := cfg.deploy()
		var res Result
		d.reference(&res)
		drained := d.(*run).K.Fired()
		d.shutdown()
		if res.Events == 0 || res.Events >= drained {
			t.Fatalf("%v: coordinate space %d events of a %d-event run", mix, res.Events, drained)
		}

		d, _ = cfg.deploy()
		r := d.(*run)
		r.K.RunEvents(res.Events - 1)
		if r.finished == pipeline {
			t.Errorf("%v: the workload finished before event %d", mix, res.Events)
		}
		r.K.RunEvents(1)
		if r.finished != pipeline {
			t.Errorf("%v: the workload had not finished at event %d", mix, res.Events)
		}
		d.shutdown()
		for _, pt := range pickPoints(cfg.plan(), res.Events) {
			if pt.Event >= res.Events {
				t.Fatalf("%v: point %d at or past the load's end %d", mix, pt.Event, res.Events)
			}
		}
	}
}

// TestAckBeforeDurableCaught re-introduces the §2.4 premature-ack bug
// (flush ACK at DMA placement instead of the durability horizon) and
// requires the sweep to catch it as a lost acked write, with a
// reproducible (seed, point) pair.
func TestAckBeforeDurableCaught(t *testing.T) {
	for _, kind := range []rpc.Kind{rpc.WFlushRPC, rpc.SFlushRPC} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(kind, MixWrites, 11)
			// Large objects widen the placement→durability gap the bug
			// exposes, so event-boundary crashes land inside it.
			cfg.ObjSize = 16384
			cfg.Points = 120
			cfg.TornPoints = 40
			cfg.Mutant = "ackbug"
			res := mustSweep(t, cfg)
			if res.ViolationCount == 0 {
				t.Fatalf("premature-ack bug not caught over %d points (%d events)", res.Points, res.Events)
			}
			min := res.Minimal()
			if min == nil {
				t.Fatal("violations counted but none recorded")
			}
			if !strings.Contains(min.Msg, "acked write") {
				t.Errorf("expected a lost/torn acked write, got: %v", min)
			}
			// The minimal reproduction must replay deterministically
			// from (seed, point) alone.
			_, repro, _ := replay(t, cfg, min.Point)
			found := false
			for _, msg := range repro {
				if msg == min.Msg {
					found = true
				}
			}
			if !found {
				t.Errorf("minimal point %+v did not reproduce %q; got %q", min.Point, min.Msg, repro)
			}
		})
	}
}

// TestPointDeterminism runs the same crash point twice and requires
// byte-identical verification output — the property that makes a printed
// (seed, point) pair a real reproduction recipe.
func TestPointDeterminism(t *testing.T) {
	cfg := DefaultConfig(rpc.WRFlushRPC, MixBatch, 3)
	pt := Point{Event: 900, TornFrac: 0.5, SecondCrash: true}
	atA, va, a := replay(t, cfg, pt)
	atB, vb, b := replay(t, cfg, pt)
	if atA != atB {
		t.Fatalf("crash times diverged: %v vs %v", atA, atB)
	}
	if !reflect.DeepEqual(va, vb) {
		t.Fatalf("verification diverged: %q vs %q", va, vb)
	}
	if a.Replayed != b.Replayed {
		t.Fatalf("replay counts diverged: %d vs %d", a.Replayed, b.Replayed)
	}
}
