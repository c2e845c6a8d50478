package cluster

import (
	"testing"
)

// TestRingBalance bounds the load imbalance of the consistent-hash ring:
// with 64 virtual nodes per shard, no shard's share of a large key
// population strays more than 35% from the fair share.
func TestRingBalance(t *testing.T) {
	const keys = 200_000
	for _, shards := range []int{2, 4, 8, 16} {
		r := NewRing(shards, 64, 42)
		counts := make([]int, shards)
		for k := uint64(0); k < keys; k++ {
			counts[r.Shard(k)]++
		}
		fair := float64(keys) / float64(shards)
		for s, c := range counts {
			dev := float64(c)/fair - 1
			if dev < -0.35 || dev > 0.35 {
				t.Errorf("%d shards: shard %d holds %d keys (%.0f%% off fair share)",
					shards, s, c, dev*100)
			}
		}
	}
}

// TestRingMinimalMovement checks the defining property of consistent
// hashing: adding a shard relocates only the keys the new shard takes over,
// and every other key keeps its placement. The grown ring places every key
// exactly where a ring built with all the shards from the start does.
func TestRingMinimalMovement(t *testing.T) {
	const keys = 50_000
	const shards = 8
	const added = shards - 1
	r := NewRing(shards-1, 64, 7)
	before := make([]int, keys)
	for k := range before {
		before[k] = r.Shard(uint64(k))
	}

	r.Add(added)
	full := NewRing(shards, 64, 7)
	moved, stayed := 0, 0
	for k := range before {
		after := r.Shard(uint64(k))
		if want := full.Shard(uint64(k)); after != want {
			t.Fatalf("after adding shard %d, key %d maps to %d, want %d", added, k, after, want)
		}
		if after == before[k] {
			stayed++
			continue
		}
		if after != added {
			t.Fatalf("key %d moved from shard %d to %d, not to the added shard", k, before[k], after)
		}
		moved++
	}
	if moved == 0 || stayed == 0 {
		t.Fatalf("degenerate split: moved=%d stayed=%d", moved, stayed)
	}
	// Roughly 1/shards of the keys should have moved.
	frac := float64(moved) / float64(keys)
	if frac < 0.04 || frac > 0.30 {
		t.Errorf("adding a shard moved %.1f%% of keys, want ≈ %.1f%%", frac*100, 100.0/shards)
	}
}

// TestRingDeterminism pins placement to the seed: the same seed rebuilds
// identical placement; a different seed produces a different one.
func TestRingDeterminism(t *testing.T) {
	a := NewRing(6, 64, 99)
	b := NewRing(6, 64, 99)
	c := NewRing(6, 64, 100)
	same, diff := true, false
	for k := uint64(0); k < 10_000; k++ {
		if a.Shard(k) != b.Shard(k) {
			same = false
		}
		if a.Shard(k) != c.Shard(k) {
			diff = true
		}
	}
	if !same {
		t.Error("identical seeds produced different placements")
	}
	if !diff {
		t.Error("different seeds produced identical placements (suspicious mixing)")
	}
}
