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

// AllocArray makes count consecutive n-byte allocations at once and returns
// the first address and the stride between them: element i is at
// base + i·stride, and the arena is left as count calls to Alloc(n) would
// leave it. If they would not all fit, it returns an error and allocates
// nothing.
func (a *Arena) AllocArray(n int64, count int) (base, stride int64, err error) {
	if n <= 0 || count < 0 {
		return 0, 0, fmt.Errorf("pmem: alloc of %d x %d bytes", count, n)
	}
	c, err := class(n)
	if err != nil {
		return 0, 0, err
	}
	if int64(count) > (a.base+a.size-a.next)/c {
		return 0, 0, fmt.Errorf("pmem: arena exhausted (%d of %d used, want %d x %d)", a.next-a.base, a.size, count, c)
	}
	base = a.next
	a.next += int64(count) * c
	return base, c, nil
}
