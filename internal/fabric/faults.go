// Fault injection: a deterministic, seed-driven adversary layered over the
// fabric's delivery path. The injector models the delivery-order and
// availability hazards a real RDMA fabric can exhibit — network partitions
// with heal schedules, gray failures (endpoints that are up but slow),
// duplicated delivery, bounded reordering, and periodic congestion/RNR drop
// bursts — without touching the reliability machinery above it: the QP
// layer's retransmission, dedup, and durability-horizon logic must absorb
// every adversary here, which is exactly what the cluster crash sweep's
// fault × workload cells assert.
//
// Every link — a (source endpoint, destination) pair — draws from its own
// splitmix64 stream, seeded from (seed, source, destination) and kept on the
// source endpoint. A link's schedule is therefore a pure function of (spec,
// seed, that link's traffic): extra traffic elsewhere never moves it, and
// on a partitioned network only the source's kernel ever draws from it.
package fabric

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"
	"time"

	"prdma/internal/sim"
)

// PartitionSpec cuts links for a window of simulated time. From and To are
// endpoint-name prefixes ("" matches every endpoint): a message is cut when
// its source matches From and its destination matches To — or, with
// Symmetric, the reverse direction too. Prefixes make partial partitions
// cheap to express ("s0" cuts every replica of shard 0).
type PartitionSpec struct {
	From      string `json:"from,omitempty"`
	To        string `json:"to,omitempty"`
	Symmetric bool   `json:"symmetric,omitempty"`
	// The partition holds during [StartUS, EndUS) of sim time, in
	// microseconds; EndUS 0 means it never heals.
	StartUS int `json:"startUS,omitempty"`
	EndUS   int `json:"endUS,omitempty"`
}

// GraySpec models a gray failure: an endpoint that stays up but serves its
// traffic slowly. Matching messages (to or from the endpoint prefix) gain
// an exponentially distributed extra latency of mean MeanUS during the
// window; Prob (default 1) is the fraction of matching messages slowed.
type GraySpec struct {
	Endpoint string  `json:"endpoint,omitempty"`
	MeanUS   int     `json:"meanUS,omitempty"`
	Prob     float64 `json:"prob,omitempty"`
	StartUS  int     `json:"startUS,omitempty"`
	EndUS    int     `json:"endUS,omitempty"`
}

// BurstSpec drops messages with probability DropProb during repeating
// windows [StartUS + i·PeriodUS, +LenUS) — congestion or receiver-not-ready
// bursts. To (prefix, "" = all) restricts which destinations are hit.
type BurstSpec struct {
	StartUS  int     `json:"startUS,omitempty"`
	PeriodUS int     `json:"periodUS,omitempty"`
	LenUS    int     `json:"lenUS,omitempty"`
	DropProb float64 `json:"dropProb,omitempty"`
	To       string  `json:"to,omitempty"`
}

// FaultSpec is one complete adversary: any combination of partitions, gray
// failures, duplicated delivery, bounded reordering, and drop bursts.
type FaultSpec struct {
	Name string `json:"name,omitempty"`

	Partitions []PartitionSpec `json:"partitions,omitempty"`
	Gray       []GraySpec      `json:"gray,omitempty"`

	// DupProb duplicates a delivered message with this probability; the
	// copy arrives an exponentially distributed DupDelayUS (mean) later.
	DupProb    float64 `json:"dupProb,omitempty"`
	DupDelayUS int     `json:"dupDelayUS,omitempty"`

	// ReorderProb holds a message back past the per-pair FIFO point by a
	// uniform extra delay in (0, ReorderMaxUS], letting later messages
	// overtake it — bounded reordering.
	ReorderProb  float64 `json:"reorderProb,omitempty"`
	ReorderMaxUS int     `json:"reorderMaxUS,omitempty"`

	Bursts []BurstSpec `json:"bursts,omitempty"`
}

// Empty reports whether the spec injects nothing.
func (s *FaultSpec) Empty() bool {
	return len(s.Partitions) == 0 && len(s.Gray) == 0 && len(s.Bursts) == 0 &&
		s.DupProb == 0 && s.ReorderProb == 0
}

// Validate rejects nonsensical knobs before a run silently misbehaves.
func (s *FaultSpec) Validate() error {
	checkProb := func(p float64, what string) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("fabric: fault %q: %s probability %v outside [0,1]", s.Name, what, p)
		}
		return nil
	}
	if err := checkProb(s.DupProb, "dup"); err != nil {
		return err
	}
	if err := checkProb(s.ReorderProb, "reorder"); err != nil {
		return err
	}
	if s.ReorderProb > 0 && s.ReorderMaxUS <= 0 {
		return fmt.Errorf("fabric: fault %q: reorderProb needs reorderMaxUS > 0", s.Name)
	}
	if s.DupProb > 0 && s.DupDelayUS <= 0 {
		return fmt.Errorf("fabric: fault %q: dupProb needs dupDelayUS > 0", s.Name)
	}
	for _, p := range s.Partitions {
		if p.EndUS != 0 && p.EndUS <= p.StartUS {
			return fmt.Errorf("fabric: fault %q: partition window [%d,%d) is empty", s.Name, p.StartUS, p.EndUS)
		}
	}
	for _, g := range s.Gray {
		if err := checkProb(g.Prob, "gray"); err != nil {
			return err
		}
		if g.MeanUS <= 0 {
			return fmt.Errorf("fabric: fault %q: gray endpoint %q needs meanUS > 0", s.Name, g.Endpoint)
		}
	}
	for _, b := range s.Bursts {
		if err := checkProb(b.DropProb, "burst"); err != nil {
			return err
		}
		if b.PeriodUS <= 0 || b.LenUS <= 0 || b.LenUS > b.PeriodUS {
			return fmt.Errorf("fabric: fault %q: burst needs 0 < lenUS <= periodUS", s.Name)
		}
	}
	return nil
}

// Injector evaluates one FaultSpec against every message the network sends.
// Attach with Network.SetInjector; a nil injector (the default) leaves the
// fabric's behavior — timing, stats, allocation — exactly unchanged.
type Injector struct {
	Spec FaultSpec
	seed uint64

	// Per-adversary counters, split finer than the network's DroppedFault
	// total so the matrix figure can attribute loss. Partitions bump them
	// concurrently, so they are atomic adds (sums, so the totals stay
	// deterministic at any worker count).
	DropsPartition int64
	DropsBurst     int64
	GrayDelays     int64
	Duplicates     int64
	Reorders       int64
}

// NewInjector builds an injector for spec. The seed fixes the full delivery
// schedule: same (spec, seed, traffic) ⇒ identical drops, delays, copies.
func NewInjector(spec FaultSpec, seed uint64) *Injector {
	return &Injector{Spec: spec, seed: seed}
}

// stream returns the link from→to's random stream, seeded from (seed, from,
// to) by an FNV-1a hash of the two names.
func (i *Injector) stream(from, to string) *sim.Rand {
	h := fnv.New64a()
	h.Write([]byte(from + "\x00" + to))
	return sim.NewRand(i.seed ^ h.Sum64())
}

// verdict is the injector's judgment on one message.
type verdict struct {
	drop    bool
	extra   time.Duration // gray slowdown, added before the FIFO point
	reorder time.Duration // held past the FIFO point (0 = in order)
	dup     time.Duration // duplicate arrives this long after the original (0 = none)
}

func prefixMatch(pat, name string) bool {
	return pat == "" || strings.HasPrefix(name, pat)
}

func inWindow(t sim.Time, startUS, endUS int) bool {
	if t < sim.Time(startUS)*sim.Time(time.Microsecond) {
		return false
	}
	return endUS == 0 || t < sim.Time(endUS)*sim.Time(time.Microsecond)
}

// judge decides the fate of a message leaving `from` for `to` at time t
// (its tx-complete instant), drawing from rng, the link's stream. Draw order
// is fixed so the schedule is a pure function of (spec, seed, the link's
// traffic).
func (i *Injector) judge(t sim.Time, from, to string, rng *sim.Rand) verdict {
	var v verdict
	s := &i.Spec
	for _, p := range s.Partitions {
		if !inWindow(t, p.StartUS, p.EndUS) {
			continue
		}
		if (prefixMatch(p.From, from) && prefixMatch(p.To, to)) ||
			(p.Symmetric && prefixMatch(p.From, to) && prefixMatch(p.To, from)) {
			atomic.AddInt64(&i.DropsPartition, 1)
			v.drop = true
			return v
		}
	}
	for _, b := range s.Bursts {
		if t < sim.Time(b.StartUS)*sim.Time(time.Microsecond) || !prefixMatch(b.To, to) {
			continue
		}
		phase := (t - sim.Time(b.StartUS)*sim.Time(time.Microsecond)) %
			(sim.Time(b.PeriodUS) * sim.Time(time.Microsecond))
		if phase < sim.Time(b.LenUS)*sim.Time(time.Microsecond) && rng.Float64() < b.DropProb {
			atomic.AddInt64(&i.DropsBurst, 1)
			v.drop = true
			return v
		}
	}
	for _, g := range s.Gray {
		if !inWindow(t, g.StartUS, g.EndUS) {
			continue
		}
		if prefixMatch(g.Endpoint, to) || prefixMatch(g.Endpoint, from) {
			prob := g.Prob
			if prob == 0 {
				prob = 1
			}
			if rng.Float64() < prob {
				atomic.AddInt64(&i.GrayDelays, 1)
				v.extra += time.Duration(rng.Exp(float64(g.MeanUS) * float64(time.Microsecond)))
			}
		}
	}
	if s.ReorderProb > 0 && rng.Float64() < s.ReorderProb {
		atomic.AddInt64(&i.Reorders, 1)
		v.reorder = time.Duration(1 + rng.Int63n(int64(s.ReorderMaxUS)*int64(time.Microsecond)))
	}
	if s.DupProb > 0 && rng.Float64() < s.DupProb {
		atomic.AddInt64(&i.Duplicates, 1)
		v.dup = time.Duration(rng.Exp(float64(s.DupDelayUS) * float64(time.Microsecond)))
		if v.dup <= 0 {
			v.dup = time.Microsecond
		}
	}
	return v
}
