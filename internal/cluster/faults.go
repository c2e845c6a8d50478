package cluster

import (
	"fmt"
	"strings"

	"prdma/internal/fabric"
)

// builtinFaults returns the named fabric adversary library: partitions
// with heal schedules, gray failures, duplicated and reordered delivery and
// drop bursts. Cluster scenarios pick one by name ("faultName"), and
// `prdmabench -crashcheck -cluster -faults … -workloads …` runs the cluster
// crash-point sweep once per (adversary, YCSB workload) cell. Endpoint
// prefixes assume NewPartitioned's host names ("gw<gateway>" client hosts
// and "s<shard>r<replica>" storage nodes) at the sweep's 2 shards × 3
// replicas; windows assume its default load's ~0.6–2 ms span. Every partition heals
// within the run, so retransmission — not operator surgery — must restore
// connectivity.
func builtinFaults() []fabric.FaultSpec {
	return []fabric.FaultSpec{
		{Name: "none"},
		{
			// Symmetric full cut of one replica: both directions to s0r1
			// black-hole for 300 µs, then heal. Quorum writes ride on the
			// remaining two replicas; the healed replica catches up from
			// RC retransmissions, and the store's version guard must fend
			// off the stale ones.
			Name: "partition",
			Partitions: []fabric.PartitionSpec{
				{To: "s0r1", Symmetric: true, StartUS: 120, EndUS: 420},
			},
		},
		{
			// Asymmetric cut: requests gateway→s0r2 vanish but ACKs still
			// flow — the half-open link failure mode.
			Name: "asym-partition",
			Partitions: []fabric.PartitionSpec{
				{From: "gw", To: "s0r2", StartUS: 150, EndUS: 500},
			},
		},
		{
			// Gray failure: shard 0's primary stays up but serves slowly
			// (exponential extra latency, mean 15 µs, on 70% of its
			// traffic) for the whole run. No detector fires — the cluster
			// must absorb the slowness, visible only in the tail.
			Name: "gray",
			Gray: []fabric.GraySpec{
				{Endpoint: "s0r0", MeanUS: 15, Prob: 0.7},
			},
		},
		{
			// Bounded reordering: 15% of messages are held up to 20 µs
			// past the FIFO point, letting later traffic overtake.
			Name:         "reorder",
			ReorderProb:  0.15,
			ReorderMaxUS: 20,
		},
		{
			// Duplicated delivery: 20% of messages arrive twice, the copy
			// an exponential ~10 µs later. QP-level dedup must swallow
			// every copy without re-applying.
			Name:       "duplicate",
			DupProb:    0.2,
			DupDelayUS: 10,
		},
		{
			// Congestion/RNR bursts: every 200 µs, a 60 µs window drops
			// half of all deliveries fabric-wide.
			Name: "burst",
			Bursts: []fabric.BurstSpec{
				{StartUS: 60, PeriodUS: 200, LenUS: 60, DropProb: 0.5},
			},
		},
		{
			// Everything at once, each knob dialed down: a healing
			// partition under reordering, duplication, and periodic loss.
			Name: "chaos",
			Partitions: []fabric.PartitionSpec{
				{To: "s1r2", Symmetric: true, StartUS: 200, EndUS: 450},
			},
			ReorderProb:  0.1,
			ReorderMaxUS: 15,
			DupProb:      0.1,
			DupDelayUS:   8,
			Bursts: []fabric.BurstSpec{
				{StartUS: 100, PeriodUS: 300, LenUS: 80, DropProb: 0.35},
			},
		},
	}
}

// FaultNames lists the builtin adversary names in library order.
func FaultNames() []string {
	specs := builtinFaults()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// FaultByName resolves one builtin adversary.
func FaultByName(name string) (fabric.FaultSpec, error) {
	for _, s := range builtinFaults() {
		if s.Name == name {
			return s, nil
		}
	}
	return fabric.FaultSpec{}, fmt.Errorf("cluster: unknown fault %q (have %s)",
		name, strings.Join(FaultNames(), ", "))
}
