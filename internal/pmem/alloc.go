package pmem

import (
	"fmt"
	"sort"
)

// Arena hands out address ranges from a device's address space. It is a
// bump allocator with size-class free lists, enough to back the redo log
// ring buffers and the KV store's value slabs. Allocation metadata is host
// DRAM state in the real system and is rebuilt on recovery, so it carries
// no simulated latency here.
type Arena struct {
	base int64
	size int64
	next int64
	// free lists keyed by rounded size class.
	free map[int64][]int64
	// live tracks outstanding allocations for double-free detection.
	live map[int64]int64
}

// NewArena manages [base, base+size).
func NewArena(base, size int64) *Arena {
	return &Arena{
		base: base, size: size, next: base,
		free: make(map[int64][]int64),
		live: make(map[int64]int64),
	}
}

// maxClass is the largest allocation class an int64 holds.
const maxClass = 1 << 62

// class rounds n up to its allocation class (powers of two from 64 bytes).
// A size above the largest class is an error: doubling past it would
// overflow and never reach n.
func class(n int64) (int64, error) {
	if n > maxClass {
		return 0, fmt.Errorf("pmem: %d bytes exceeds the largest size class", n)
	}
	c := int64(64)
	for c < n {
		c <<= 1
	}
	return c, nil
}

// Alloc returns the address of a range holding at least n bytes, aligned to
// 64 bytes. It returns an error when the arena is exhausted.
func (a *Arena) Alloc(n int64) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("pmem: alloc of %d bytes", n)
	}
	c, err := class(n)
	if err != nil {
		return 0, err
	}
	if lst := a.free[c]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		a.free[c] = lst[:len(lst)-1]
		a.live[addr] = c
		return addr, nil
	}
	if a.next+c > a.base+a.size {
		return 0, fmt.Errorf("pmem: arena exhausted (%d of %d used, want %d)", a.next-a.base, a.size, c)
	}
	addr := a.next
	a.next += c
	a.live[addr] = c
	return addr, nil
}

// Free returns a range to the allocator.
func (a *Arena) Free(addr int64) {
	c, ok := a.live[addr]
	if !ok {
		panic(fmt.Sprintf("pmem: free of unallocated address %#x", addr))
	}
	delete(a.live, addr)
	a.free[c] = append(a.free[c], addr)
}

// InUse returns the number of live allocations.
func (a *Arena) InUse() int { return len(a.live) }

// Used returns bytes consumed from the arena (including freed classes).
func (a *Arena) Used() int64 { return a.next - a.base }

// Live returns the live allocation addresses in sorted order (for tests).
func (a *Arena) Live() []int64 {
	out := make([]int64, 0, len(a.live))
	for addr := range a.live {
		out = append(out, addr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
