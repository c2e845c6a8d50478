// Package cluster composes the repo's single-server durable-RPC substrate
// into a partitioned, replicated KV service: N shard groups, each an R-way
// replication group driven through internal/replicate over any durable RPC
// family, with consistent-hash routing, a membership/failover controller,
// and a cluster-scale load generator. See DESIGN.md §10.
package cluster

import (
	"fmt"
	"sort"
)

// mix is splitmix64: a fast, well-distributed 64-bit mixer used both to
// place virtual nodes on the ring and to hash keys onto it. Deterministic
// by construction — placement depends only on (seed, shard, vnode).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type ringPoint struct {
	h     uint64
	shard int
}

// Ring is a consistent-hash ring mapping keys to shards through VNodes
// virtual points per shard. Adding a shard moves only the keys that hash to
// its new points (≈1/N of the space); the rest stay put — the property the
// ring tests pin down.
type Ring struct {
	seed   uint64
	vnodes int
	points []ringPoint
}

// NewRing builds a ring of shards×vnodes points under a fixed seed.
func NewRing(shards, vnodes int, seed uint64) *Ring {
	if shards <= 0 || vnodes <= 0 {
		panic(fmt.Sprintf("cluster: ring needs shards>0, vnodes>0 (got %d, %d)", shards, vnodes))
	}
	r := &Ring{seed: seed, vnodes: vnodes}
	for s := 0; s < shards; s++ {
		r.Add(s)
	}
	return r
}

// Add places shard s's virtual points on the ring.
func (r *Ring) Add(s int) {
	for v := 0; v < r.vnodes; v++ {
		h := mix(r.seed ^ mix(uint64(s)<<20|uint64(v)))
		r.points = append(r.points, ringPoint{h: h, shard: s})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].shard < r.points[j].shard // total order: ties broken by shard
	})
}

// Shard maps a key to its owning shard: the first ring point clockwise
// from the key's hash.
func (r *Ring) Shard(key uint64) int {
	if len(r.points) == 0 {
		panic("cluster: empty ring")
	}
	h := mix(r.seed ^ mix(key))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0 // wrap: past the highest point, the ring continues at the lowest
	}
	return r.points[i].shard
}
