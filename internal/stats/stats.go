// Package stats provides latency recorders and throughput counters for the
// PRDMA experiment harness. Recorders keep raw samples (experiment sizes are
// bounded) so any percentile can be computed exactly, matching how the paper
// reports 95th/99th/99.9th tails.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Latency records a set of duration samples.
type Latency struct {
	samples []time.Duration
	sorted  bool
}

// NewLatency returns an empty recorder with capacity hint n.
func NewLatency(n int) *Latency {
	return &Latency{samples: make([]time.Duration, 0, n)}
}

// Add records one sample.
func (l *Latency) Add(d time.Duration) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

// Count returns the number of samples.
func (l *Latency) Count() int { return len(l.samples) }

func (l *Latency) sortIfNeeded() {
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank on the sorted samples. Zero samples yields zero.
func (l *Latency) Percentile(p float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	if p <= 0 {
		p = math.SmallestNonzeroFloat64
	}
	if p > 100 {
		p = 100
	}
	l.sortIfNeeded()
	rank := int(math.Ceil(p / 100 * float64(len(l.samples))))
	if rank < 1 {
		rank = 1
	}
	return l.samples[rank-1]
}

// Mean returns the arithmetic mean of the samples.
func (l *Latency) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	return l.Sum() / time.Duration(len(l.samples))
}

// Sum returns the total of all samples.
func (l *Latency) Sum() time.Duration {
	var sum time.Duration
	for _, s := range l.samples {
		sum += s
	}
	return sum
}

// Throughput describes a completed-operations-over-time measurement.
type Throughput struct {
	Ops     int
	Elapsed time.Duration
}

// KOPS returns thousands of operations per second, the unit in Fig. 8.
func (t Throughput) KOPS() float64 {
	if t.Elapsed <= 0 {
		return 0
	}
	return float64(t.Ops) / t.Elapsed.Seconds() / 1e3
}

func (t Throughput) String() string {
	return fmt.Sprintf("%.1f KOPS (%d ops in %v)", t.KOPS(), t.Ops, t.Elapsed)
}
