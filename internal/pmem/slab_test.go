package pmem

import (
	"testing"
	"time"
)

func TestSlabsAllocHugeSizeErrors(t *testing.T) {
	for _, n := range hugeSizes {
		returnsWithin(t, 3*time.Second, func() {
			if addr, err := NewSlabs(0, 1<<20, 4096).Alloc(n); err == nil {
				t.Errorf("Slabs.Alloc(%d) = %#x, want an error", n, addr)
			}
		})
	}
}

func TestSlabsClassBoundaries(t *testing.T) {
	s := NewSlabs(0, 1<<20, 4096)
	// Requests at and around power-of-two boundaries land in the right
	// class: n, the slab slot stride, must round up exactly.
	cases := []struct{ n, class int64 }{
		{1, 64}, {63, 64}, {64, 64}, {65, 128}, {128, 128},
		{129, 256}, {2048, 2048}, {2049, 4096}, {4096, 4096},
	}
	for _, c := range cases {
		if got, err := SizeClass(c.n); err != nil || got != c.class {
			t.Fatalf("SizeClass(%d) = %d, want %d", c.n, got, c.class)
		}
		a, err := s.Alloc(c.n)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", c.n, err)
		}
		if i := s.SlabIndex(a); s.SlabClassOf(i) != c.class {
			t.Fatalf("Alloc(%d) landed in class-%d slab, want %d", c.n, s.SlabClassOf(i), c.class)
		}
		s.Free(a)
	}
	if _, err := s.Alloc(4097); err == nil {
		t.Fatalf("Alloc larger than the slab size must fail")
	}
	if err := s.CheckConsistent(); err != nil {
		t.Fatalf("CheckConsistent: %v", err)
	}
}

func TestSlabsExhaustion(t *testing.T) {
	// 4 slabs x 4096 bytes; class 1024 = 4 slots per slab = 16 total.
	s := NewSlabs(1<<30, 4*4096, 4096)
	var addrs []int64
	for i := 0; i < 16; i++ {
		a, err := s.Alloc(1000)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		addrs = append(addrs, a)
	}
	if _, err := s.Alloc(1000); err == nil {
		t.Fatalf("17th allocation must exhaust the region")
	}
	// A different class is just as stuck: every slab is carved.
	if _, err := s.Alloc(64); err == nil {
		t.Fatalf("cross-class allocation must also fail when all slabs are carved")
	}
	// Freeing one class-1024 slot does not help class 64 (the slab stays
	// bound to 1024) ...
	s.Free(addrs[0])
	if _, err := s.Alloc(64); err == nil {
		t.Fatalf("a partially-free class-1024 slab must not serve class 64")
	}
	// ... but freeing a whole slab coalesces it, and the freed slab can
	// be re-carved for the other class.
	for _, a := range addrs[1:4] {
		s.Free(a)
	}
	if s.Coalesced != 1 {
		t.Fatalf("Coalesced = %d, want 1", s.Coalesced)
	}
	if _, err := s.Alloc(64); err != nil {
		t.Fatalf("re-carve after coalesce: %v", err)
	}
	if err := s.CheckConsistent(); err != nil {
		t.Fatalf("CheckConsistent: %v", err)
	}
}

func TestSlabsCoalesceInterleaved(t *testing.T) {
	s := NewSlabs(0, 1<<20, 8192)
	// Interleave allocs and frees across two classes so slabs fill,
	// drain, coalesce, and get re-carved for the other class.
	var live []int64
	rng := uint64(42)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	for i := 0; i < 4000; i++ {
		if len(live) > 0 && next(3) == 0 {
			j := int(next(uint64(len(live))))
			s.Free(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		size := int64(64)
		if next(2) == 0 {
			size = 1024
		}
		a, err := s.Alloc(size)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		live = append(live, a)
	}
	if err := s.CheckConsistent(); err != nil {
		t.Fatalf("mid-run CheckConsistent: %v", err)
	}
	for _, a := range live {
		s.Free(a)
	}
	if s.Live() != 0 || s.LiveBytes() != 0 {
		t.Fatalf("live %d / %d bytes after freeing everything", s.Live(), s.LiveBytes())
	}
	if s.Coalesced == 0 {
		t.Fatalf("interleaved run never coalesced a slab")
	}
	// Every slab must be back in the free pool.
	for i := 0; i < s.NumSlabs(); i++ {
		if s.SlabClassOf(i) != 0 {
			t.Fatalf("slab %d still carved (class %d) after full drain", i, s.SlabClassOf(i))
		}
	}
	if err := s.CheckConsistent(); err != nil {
		t.Fatalf("final CheckConsistent: %v", err)
	}
}

func TestSlabsDoubleFreePanics(t *testing.T) {
	s := NewSlabs(0, 1<<16, 4096)
	a, err := s.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	_ = b
	s.Free(a)
	defer func() {
		if recover() == nil {
			t.Fatalf("double free must panic")
		}
	}()
	s.Free(a)
}

func TestSlabsAdoptRebuild(t *testing.T) {
	// Drive one allocator, snapshot its live set, rebuild a second via
	// Adopt, and require the two to agree structurally.
	s := NewSlabs(0, 1<<18, 8192)
	type al struct{ addr, class int64 }
	var live []al
	for i := 0; i < 200; i++ {
		size := int64(64 << (i % 5))
		a, err := s.Alloc(size)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if i%3 == 0 {
			s.Free(a)
			continue
		}
		c, _ := SizeClass(size)
		live = append(live, al{a, c})
	}
	r := NewSlabs(0, 1<<18, 8192)
	// Adopt out of order to prove order independence.
	for i := len(live) - 1; i >= 0; i-- {
		r.Adopt(live[i].addr, live[i].class)
	}
	if r.Live() != len(live) {
		t.Fatalf("rebuilt live %d, want %d", r.Live(), len(live))
	}
	if err := r.CheckConsistent(); err != nil {
		t.Fatalf("rebuilt CheckConsistent: %v", err)
	}
	// The rebuilt allocator keeps serving: it must be able to reuse the
	// free slots and, after the lives are freed, coalesce everything.
	for _, l := range live {
		r.Free(l.addr)
	}
	if r.Live() != 0 {
		t.Fatalf("rebuilt allocator live %d after full drain", r.Live())
	}
	if err := r.CheckConsistent(); err != nil {
		t.Fatalf("drained CheckConsistent: %v", err)
	}
}

// TestSlabsAllocRegression pins the steady-state alloc/free cycle — the
// pool service's hot path — at zero allocations per operation.
func TestSlabsAllocRegression(t *testing.T) {
	s := NewSlabs(0, 1<<20, 8192)
	// Warm: carve the slabs and grow every free list to capacity once.
	var warm []int64
	for i := 0; i < 64; i++ {
		a, err := s.Alloc(512)
		if err != nil {
			t.Fatal(err)
		}
		warm = append(warm, a)
	}
	for _, a := range warm {
		s.Free(a)
	}
	avg := testing.AllocsPerRun(200, func() {
		a, err := s.Alloc(512)
		if err != nil {
			t.Fatal(err)
		}
		s.Free(a)
	})
	if avg > 0 {
		t.Fatalf("steady-state Alloc/Free allocates %.1f/op, want 0", avg)
	}
}
