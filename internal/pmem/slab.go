package pmem

import "fmt"

// Slabs is a slab allocator over a fixed PM region: the region is carved
// into equal-size slabs, each slab is bound to one power-of-two size class
// when it is carved, and its slots feed a per-class free list. A slab whose
// last slot is freed is coalesced — its remaining slots leave the free list
// and the slab returns to the free-slab pool, re-carvable for any class.
//
// Like Arena, Slabs is host-DRAM bookkeeping: the real system keeps it
// volatile and rebuilds it on recovery (internal/pmpool persists a shadow of
// the owned-slot set through its redo-logged metadata and calls Adopt to
// reconstruct this exact structure), so operations carry no simulated
// latency. The steady-state Alloc/Free cycle is allocation-free — the pool
// service sits on its hot path.
type Slabs struct {
	base      int64
	slabBytes int64
	slabs     []slab
	// free holds per-class free slot addresses, LIFO. Carving pushes a
	// slab's slots in descending address order so pops ascend: allocation
	// placement is deterministic given the operation sequence.
	free map[int64][]int64
	// freeSlabs is the LIFO pool of uncarved slab indices.
	freeSlabs []int

	liveCount int
	liveBytes int64

	// Carved counts slab-carve events; Coalesced counts slabs returned
	// whole to the free pool.
	Carved, Coalesced int64
}

// slab is one region-resident slab. class is 0 while uncarved; inUse is
// sized at first carve for the smallest class and re-sliced on re-carve so
// steady-state carving allocates nothing.
type slab struct {
	class int64
	used  int
	inUse []bool
}

// MinSlabClass is the smallest slot class a slab can be carved for.
const MinSlabClass = 64

// SizeClass rounds n up to its allocation class (powers of two from 64
// bytes) — the same classing Arena uses. A size above the largest class an
// int64 holds is an error.
func SizeClass(n int64) (int64, error) { return class(n) }

// NewSlabs manages [base, base+size) carved into size/slabBytes slabs.
// size must be a multiple of slabBytes, and slabBytes a power of two no
// smaller than MinSlabClass.
func NewSlabs(base, size, slabBytes int64) *Slabs {
	if slabBytes < MinSlabClass || slabBytes&(slabBytes-1) != 0 {
		panic(fmt.Sprintf("pmem: slab size %d is not a power of two >= %d", slabBytes, MinSlabClass))
	}
	if size <= 0 || size%slabBytes != 0 {
		panic(fmt.Sprintf("pmem: region size %d is not a positive multiple of slab size %d", size, slabBytes))
	}
	n := int(size / slabBytes)
	s := &Slabs{
		base:      base,
		slabBytes: slabBytes,
		slabs:     make([]slab, n),
		free:      make(map[int64][]int64),
		freeSlabs: make([]int, 0, n),
	}
	// Push descending so pops carve ascending slab addresses.
	for i := n - 1; i >= 0; i-- {
		s.freeSlabs = append(s.freeSlabs, i)
	}
	return s
}

// SlabBytes returns the slab size.
func (s *Slabs) SlabBytes() int64 { return s.slabBytes }

// NumSlabs returns the slab count.
func (s *Slabs) NumSlabs() int { return len(s.slabs) }

// Live returns the number of live allocations.
func (s *Slabs) Live() int { return s.liveCount }

// LiveBytes returns the class-rounded bytes held by live allocations.
func (s *Slabs) LiveBytes() int64 { return s.liveBytes }

// SlabIndex returns the index of the slab containing addr.
func (s *Slabs) SlabIndex(addr int64) int { return int((addr - s.base) / s.slabBytes) }

// SlabClassOf returns the bound class of slab i (0 = uncarved).
func (s *Slabs) SlabClassOf(i int) int64 { return s.slabs[i].class }

// carve binds a free slab to class c and pushes its slots on c's free list.
func (s *Slabs) carve(c int64) error {
	if len(s.freeSlabs) == 0 {
		return fmt.Errorf("pmem: slab region exhausted (%d slabs carved, %d live allocations)", len(s.slabs), s.liveCount)
	}
	i := s.freeSlabs[len(s.freeSlabs)-1]
	s.freeSlabs = s.freeSlabs[:len(s.freeSlabs)-1]
	sl := &s.slabs[i]
	slots := int(s.slabBytes / c)
	if sl.inUse == nil {
		// First carve sizes the occupancy bitmap for the smallest class;
		// every re-carve re-slices it.
		sl.inUse = make([]bool, s.slabBytes/MinSlabClass)
	}
	sl.class = c
	sl.used = 0
	b := sl.inUse[:slots]
	for j := range b {
		b[j] = false
	}
	slabBase := s.base + int64(i)*s.slabBytes
	for j := slots - 1; j >= 0; j-- {
		s.free[c] = append(s.free[c], slabBase+int64(j)*c)
	}
	s.Carved++
	return nil
}

// Alloc returns the address of a slot holding at least n bytes. Requests
// larger than the slab size, and requests the exhausted region cannot seat,
// return an error.
func (s *Slabs) Alloc(n int64) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("pmem: slab alloc of %d bytes", n)
	}
	c, err := class(n)
	if err != nil {
		return 0, err
	}
	if c > s.slabBytes {
		return 0, fmt.Errorf("pmem: slab alloc of %d bytes exceeds slab size %d", n, s.slabBytes)
	}
	lst := s.free[c]
	if len(lst) == 0 {
		if err := s.carve(c); err != nil {
			return 0, err
		}
		lst = s.free[c]
	}
	addr := lst[len(lst)-1]
	s.free[c] = lst[:len(lst)-1]
	s.markUsed(addr, c)
	return addr, nil
}

// markUsed flips addr's occupancy bit on (panicking on corruption) and
// advances the live counters.
func (s *Slabs) markUsed(addr int64, c int64) {
	i := s.SlabIndex(addr)
	sl := &s.slabs[i]
	slot := (addr - s.base - int64(i)*s.slabBytes) / c
	if sl.inUse[slot] {
		panic(fmt.Sprintf("pmem: slab slot %#x double-allocated", addr))
	}
	sl.inUse[slot] = true
	sl.used++
	s.liveCount++
	s.liveBytes += c
}

// Free returns a slot to its class free list; freeing the slab's last live
// slot coalesces the whole slab back to the free-slab pool. Freeing an
// address that is not a live allocation panics.
func (s *Slabs) Free(addr int64) {
	i := s.SlabIndex(addr)
	if i < 0 || i >= len(s.slabs) {
		panic(fmt.Sprintf("pmem: slab free of out-of-region address %#x", addr))
	}
	sl := &s.slabs[i]
	c := sl.class
	if c == 0 {
		panic(fmt.Sprintf("pmem: slab free of %#x in an uncarved slab", addr))
	}
	slabBase := s.base + int64(i)*s.slabBytes
	if (addr-slabBase)%c != 0 {
		panic(fmt.Sprintf("pmem: slab free of unaligned address %#x (class %d)", addr, c))
	}
	slot := (addr - slabBase) / c
	if !sl.inUse[slot] {
		panic(fmt.Sprintf("pmem: double free of slab slot %#x", addr))
	}
	sl.inUse[slot] = false
	sl.used--
	s.liveCount--
	s.liveBytes -= c
	if sl.used == 0 {
		s.coalesce(i, c, slabBase)
		return
	}
	s.free[c] = append(s.free[c], addr)
}

// coalesce pulls slab i's remaining free slots off class c's list and
// returns the slab whole to the free pool.
func (s *Slabs) coalesce(i int, c int64, slabBase int64) {
	lst := s.free[c]
	keep := lst[:0]
	for _, a := range lst {
		if a < slabBase || a >= slabBase+s.slabBytes {
			keep = append(keep, a)
		}
	}
	s.free[c] = keep
	s.slabs[i].class = 0
	s.freeSlabs = append(s.freeSlabs, i)
	s.Coalesced++
}

// Adopt marks addr live as a class-c allocation without going through the
// free lists: the recovery path rebuilding the allocator from a durable
// owned-slot scan. The containing slab is carved for c on first adoption; a
// class conflict inside one slab means the durable metadata is corrupt and
// panics. Adoptions may arrive in any order; the free lists stay exact
// throughout, so the rebuilt allocator is usable immediately.
func (s *Slabs) Adopt(addr, c int64) {
	if c < MinSlabClass || c&(c-1) != 0 || c > s.slabBytes {
		panic(fmt.Sprintf("pmem: adopt of %#x with bad class %d", addr, c))
	}
	i := s.SlabIndex(addr)
	if i < 0 || i >= len(s.slabs) {
		panic(fmt.Sprintf("pmem: adopt of out-of-region address %#x", addr))
	}
	sl := &s.slabs[i]
	slabBase := s.base + int64(i)*s.slabBytes
	if sl.class == 0 {
		// Carve for c, then immediately claim addr off the fresh list.
		if err := s.carveIndex(i, c); err != nil {
			panic(err)
		}
	} else if sl.class != c {
		panic(fmt.Sprintf("pmem: adopt class %d conflicts with slab class %d at %#x", c, sl.class, addr))
	}
	if (addr-slabBase)%c != 0 {
		panic(fmt.Sprintf("pmem: adopt of unaligned address %#x (class %d)", addr, c))
	}
	// Remove addr from the class free list and mark it live.
	lst := s.free[c]
	for j := len(lst) - 1; j >= 0; j-- {
		if lst[j] == addr {
			lst[j] = lst[len(lst)-1]
			s.free[c] = lst[:len(lst)-1]
			s.markUsed(addr, c)
			return
		}
	}
	panic(fmt.Sprintf("pmem: adopt of %#x: slot already live", addr))
}

// carveIndex carves a specific free slab (recovery adopts into fixed
// addresses, so the slab choice is forced).
func (s *Slabs) carveIndex(i int, c int64) error {
	for j := len(s.freeSlabs) - 1; j >= 0; j-- {
		if s.freeSlabs[j] == i {
			s.freeSlabs[j] = s.freeSlabs[len(s.freeSlabs)-1]
			s.freeSlabs = s.freeSlabs[:len(s.freeSlabs)-1]
			// Re-push so carve pops exactly slab i.
			s.freeSlabs = append(s.freeSlabs, i)
			return s.carve(c)
		}
	}
	return fmt.Errorf("pmem: slab %d is not free", i)
}

// CheckConsistent cross-checks the allocator's books: every free-list entry
// must point into a carved slab of its class and not be live, no slot may be
// both live and free, per-slab used counts must match the bitmaps, and the
// live totals must reconcile. It returns the first inconsistency found.
func (s *Slabs) CheckConsistent() error {
	freeSlabSet := make(map[int]bool, len(s.freeSlabs))
	for _, i := range s.freeSlabs {
		if s.slabs[i].class != 0 {
			return fmt.Errorf("slab %d is on the free-slab pool but carved for class %d", i, s.slabs[i].class)
		}
		if freeSlabSet[i] {
			return fmt.Errorf("slab %d appears twice in the free-slab pool", i)
		}
		freeSlabSet[i] = true
	}
	freeSlots := make(map[int64]bool)
	for c, lst := range s.free {
		for _, a := range lst {
			i := s.SlabIndex(a)
			if i < 0 || i >= len(s.slabs) {
				return fmt.Errorf("free slot %#x outside the region", a)
			}
			sl := &s.slabs[i]
			if sl.class != c {
				return fmt.Errorf("free slot %#x on class-%d list but slab %d is class %d", a, c, i, sl.class)
			}
			slot := (a - s.base - int64(i)*s.slabBytes) / c
			if sl.inUse[slot] {
				return fmt.Errorf("slot %#x is both live and on the class-%d free list", a, c)
			}
			if freeSlots[a] {
				return fmt.Errorf("slot %#x appears twice across free lists", a)
			}
			freeSlots[a] = true
		}
	}
	live, liveBytes := 0, int64(0)
	for i := range s.slabs {
		sl := &s.slabs[i]
		if sl.class == 0 {
			if sl.used != 0 {
				return fmt.Errorf("uncarved slab %d has used=%d", i, sl.used)
			}
			if !freeSlabSet[i] {
				return fmt.Errorf("uncarved slab %d missing from the free-slab pool", i)
			}
			continue
		}
		slots := int(s.slabBytes / sl.class)
		used, freeHere := 0, 0
		slabBase := s.base + int64(i)*s.slabBytes
		for j := 0; j < slots; j++ {
			if sl.inUse[j] {
				used++
			} else if freeSlots[slabBase+int64(j)*sl.class] {
				freeHere++
			}
		}
		if used != sl.used {
			return fmt.Errorf("slab %d used count %d but bitmap holds %d", i, sl.used, used)
		}
		if used+freeHere != slots {
			return fmt.Errorf("slab %d: %d live + %d free != %d slots", i, used, freeHere, slots)
		}
		live += used
		liveBytes += int64(used) * sl.class
	}
	if live != s.liveCount || liveBytes != s.liveBytes {
		return fmt.Errorf("live totals %d/%d bytes, books say %d/%d", live, liveBytes, s.liveCount, s.liveBytes)
	}
	return nil
}
