// Package crashcheck is a deterministic crash-point sweep checker. One
// harness, Sweep, drives three targets: a durable-RPC family under one
// traffic mix (Config), a sharded replicated KV cluster (ClusterConfig) and
// the remote PM pool (PMPoolConfig). Sweep runs the target's workload once
// crash-free to size its crash coordinate space, then replays it once per
// selected crash point — an event boundary, a seeded offset *inside* an
// in-flight PM persist window (a torn write), or, on the cluster, a window
// barrier — crashes there, lets recovery run, and asserts the paper's
// crash-consistency contract end to end:
//
//  1. No acked write is ever lost: every operation whose durability
//     completed before the crash is either already applied or replayed.
//  2. Replay is at-least-once and in sequence order: the recovery scan
//     yields strictly increasing sequence numbers at or above the durable
//     floor (the sequence space is gapped — reads own numbers but no log
//     bytes — so contiguity is not required).
//  3. Torn entries never surface: anything the scan returns decodes to an
//     internally consistent request frame; a commit word that was not yet
//     durable keeps the entry (and everything after it) out.
//  4. Post-recovery ring accounting matches a from-scratch reconstruction
//     of the ring state (redolog.CheckAccounting).
//  5. A crash during recovery is itself recoverable: selected points arm
//     a second crash timed to land while the first recovery is in flight.
//
// The durable-RPC and pool targets crash their one server through
// failure.Server, the protocol Fig. 12's driver runs; the cluster target
// crashes replicas through cluster.Driver. Each target adds its own
// end-state checks (replica convergence for the cluster, no leaked or
// resurrected slot for the pool). The reference run and every crash point
// build the same deployment, so a crash at point i lands after the
// reference run's first i coordinate steps. Determinism: the
// workload is precomputed from a seed, the simulator is deterministic, and
// crashes are placed by coordinate index or by an exact simulated time
// inside a persist window, so every violation is replayable from (seed,
// point) alone.
package crashcheck

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"prdma/internal/sim"
)

// Target is a system Sweep can crash: Config, ClusterConfig or PMPoolConfig.
type Target interface {
	// plan names the target and says where its crash points fall.
	plan() plan
	// deploy builds one fresh deployment. The reference run and every
	// crash point build the same one, so a crash at point i lands after
	// the reference run's first i coordinate steps.
	deploy() (deployment, error)
}

// plan is what Sweep needs to know about a target beside its deployments.
type plan struct {
	// name labels the target's violations; coord names its crash
	// coordinate ("event" or "window").
	name, coord string
	seed        int64
	// points, torn and second place crashes (see pickPoints).
	points, torn, second int
	// salt keys the point rng per coordinate; floor skips the setup
	// transient at the start of the coordinate space.
	salt  int64
	floor uint64
	// mutant is the seeded bug to run with, one of mutants or "".
	mutant  string
	mutants []string
}

// deployment is one fresh build of a target, used once.
type deployment interface {
	// reference runs the workload crash-free, records the size of the
	// crash coordinate space in res.Events (and anything else the target
	// measures there), and returns the time it stopped at.
	reference(res *Result) sim.Time
	// crash replays the workload to pt, crashes, lets recovery settle and
	// returns the crash time. span is the reference run's simulated length.
	crash(pt Point, span time.Duration) sim.Time
	// tally adds the deployment's recovery work to res.
	tally(res *Result)
	// verify checks the settled end state: one message per broken invariant.
	verify() []string
	shutdown()
}

// Point identifies one crash placement.
type Point struct {
	// Event is the index the crash lands on in the target's coordinate: an
	// event boundary, or a window barrier on the cluster.
	Event uint64
	// TornFrac, when positive, advances the clock from the event
	// boundary to this fraction of an in-flight persist window before
	// crashing, so the crash lands mid-persist.
	TornFrac float64
	// SecondCrash arms another crash during the first recovery.
	SecondCrash bool
}

// Violation is one broken invariant at one crash point, or in the
// crash-free reference run.
type Violation struct {
	// Target names the swept target; Coord its crash coordinate.
	Target, Coord string
	Seed          int64
	// Reference marks a violation of the crash-free reference run, which
	// has no crash Point.
	Reference bool
	Point     Point
	// At is the simulated crash time (the reference run's end time).
	At  sim.Time
	Msg string
}

// Where renders the crash placement: "reference run", or the coordinate
// and the point ("window=346", "event=4868 torn=0.219 second-crash").
func (v Violation) Where() string {
	if v.Reference {
		return "reference run"
	}
	s := fmt.Sprintf("%s=%d", v.Coord, v.Point.Event)
	if v.Point.TornFrac > 0 {
		s += fmt.Sprintf(" torn=%.3f", v.Point.TornFrac)
	}
	if v.Point.SecondCrash {
		s += " second-crash"
	}
	return s
}

func (v Violation) String() string {
	return fmt.Sprintf("%s seed=%d %s at=%v: %s", v.Target, v.Seed, v.Where(), v.At, v.Msg)
}

// Result summarizes one sweep.
type Result struct {
	// Target and Coord name the swept target and its crash coordinate.
	Target, Coord string
	Seed          int64
	// Points is how many distinct crash points were swept.
	Points int
	// Events is the coordinate space the points were sampled from: the
	// reference run's event count, or for the cluster the window at which
	// its load finished.
	Events uint64
	// Ref measures the cluster's crash-free reference run.
	Ref RefStats
	// Replayed totals log replays across all points; Failovers, Resyncs
	// and Shipped the cluster controller's work, and PMFull its
	// PM-exhaustion backpressure drops.
	Replayed, Failovers, Resyncs, Shipped, PMFull int64
	// Violations holds up to maxViolations broken invariants;
	// ViolationCount is the true total.
	Violations     []Violation
	ViolationCount int
}

const maxViolations = 50

// Minimal returns the earliest-crash violation: the minimal reproduction
// to chase first (a reference-run violation comes before any crash). Nil
// when the sweep was clean.
func (r *Result) Minimal() *Violation {
	var min *Violation
	for i := range r.Violations {
		v := &r.Violations[i]
		if min == nil || v.Point.Event < min.Point.Event {
			min = v
		}
	}
	return min
}

func (r *Result) record(pt Point, ref bool, at sim.Time, msgs []string) {
	for _, msg := range msgs {
		r.ViolationCount++
		if len(r.Violations) < maxViolations {
			r.Violations = append(r.Violations, Violation{
				Target: r.Target, Coord: r.Coord, Seed: r.Seed,
				Reference: ref, Point: pt, At: at, Msg: msg,
			})
		}
	}
}

// Sweep runs the target's crash-free reference to size its coordinate
// space, then replays the workload once per crash point and collects
// violations. It fails on a negative point count, on a mutant the target
// does not have, or when the target cannot be deployed.
func Sweep(t Target) (Result, error) {
	pl := t.plan()
	res := Result{Target: pl.name, Coord: pl.coord, Seed: pl.seed}
	if pl.points < 0 || pl.torn < 0 {
		return res, fmt.Errorf("crashcheck: %s: negative crash-point count (points %d, torn %d)", pl.name, pl.points, pl.torn)
	}
	if pl.mutant != "" && !slices.Contains(pl.mutants, pl.mutant) {
		return res, fmt.Errorf("crashcheck: %s has no mutant %q (%s)", pl.name, pl.mutant, strings.Join(pl.mutants, ", "))
	}
	ref, err := t.deploy()
	if err != nil {
		return res, err
	}
	end := ref.reference(&res)
	res.record(Point{}, true, end, ref.verify())
	// Reap every deployment's kernel: hundreds of points each parking
	// their procs would otherwise accumulate across the sweep.
	ref.shutdown()

	points := pickPoints(pl, res.Events)
	res.Points = len(points)
	for _, pt := range points {
		d, err := t.deploy()
		if err != nil {
			return res, err
		}
		at := d.crash(pt, end.Sub(0))
		d.tally(&res)
		res.record(pt, false, at, d.verify())
		d.shutdown()
	}
	return res, nil
}

// pickPoints selects distinct crash points across the reference coordinate
// space [floor, events): points boundaries, torn mid-persist offsets, and a
// second crash armed every second-th point.
func pickPoints(pl plan, events uint64) []Point {
	rng := rand.New(rand.NewSource(pl.seed ^ pl.salt))
	lo := pl.floor
	if events <= lo+2 {
		lo = 1
	}
	span := int64(events - lo)
	if span <= 0 {
		span = 1
	}
	seen := make(map[uint64]bool)
	var points []Point
	n := pl.points
	if uint64(n) > uint64(span) {
		n = int(span)
	}
	for len(points) < n {
		e := lo + uint64(rng.Int63n(span))
		if seen[e] {
			continue
		}
		seen[e] = true
		points = append(points, Point{Event: e})
	}
	for i := 0; i < pl.torn; i++ {
		e := lo + uint64(rng.Int63n(span))
		points = append(points, Point{Event: e, TornFrac: 0.05 + 0.9*rng.Float64()})
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].Event != points[j].Event {
			return points[i].Event < points[j].Event
		}
		return points[i].TornFrac < points[j].TornFrac
	})
	if pl.second > 0 {
		for i := range points {
			if (i+1)%pl.second == 0 {
				points[i].SecondCrash = true
			}
		}
	}
	return points
}

// fill builds a self-describing object image: key, version, then a byte
// pattern derived from both, so a torn or misdirected apply is visible.
func fill(objSize int, key uint64, ver uint32) []byte {
	b := make([]byte, objSize)
	binary.LittleEndian.PutUint64(b[0:], key)
	binary.LittleEndian.PutUint32(b[8:], ver)
	for j := 16; j < objSize; j++ {
		b[j] = byte(17*key + 31*uint64(ver) + uint64(j))
	}
	return b
}

func checkFill(b []byte, key uint64) (uint32, error) {
	if got := binary.LittleEndian.Uint64(b[0:]); got != key {
		return 0, fmt.Errorf("object stamped with key %d, want %d", got, key)
	}
	ver := binary.LittleEndian.Uint32(b[8:])
	for j := 16; j < len(b); j++ {
		if b[j] != byte(17*key+31*uint64(ver)+uint64(j)) {
			return 0, fmt.Errorf("object for key %d ver %d torn at byte %d", key, ver, j)
		}
	}
	return ver, nil
}
