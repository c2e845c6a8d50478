package pmem

import "fmt"

// Arena hands out address ranges from a device's address space: a bump
// allocator over size classes, enough to back the redo log ring buffers,
// the KV store's value slabs and the pool's tables, which live as long as
// their deployment. Allocation metadata is host DRAM state in the real
// system and is rebuilt on recovery, so it carries no simulated latency
// here.
type Arena struct {
	base int64
	size int64
	next int64
}

// NewArena manages [base, base+size).
func NewArena(base, size int64) *Arena {
	return &Arena{base: base, size: size, next: base}
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
	if a.next+c > a.base+a.size {
		return 0, fmt.Errorf("pmem: arena exhausted (%d of %d used, want %d)", a.next-a.base, a.size, c)
	}
	addr := a.next
	a.next += c
	return addr, nil
}
