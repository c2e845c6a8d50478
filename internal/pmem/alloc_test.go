package pmem

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestArenaAllocBasic(t *testing.T) {
	a := NewArena(0, 1<<20)
	x, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	y, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if x == y {
		t.Fatal("overlapping allocations")
	}
	if x%64 != 0 || y%64 != 0 {
		t.Fatal("unaligned allocation")
	}
	if a.InUse() != 2 {
		t.Fatalf("InUse = %d", a.InUse())
	}
}

func TestArenaReuseAfterFree(t *testing.T) {
	a := NewArena(4096, 1<<20)
	x, _ := a.Alloc(200)
	a.Free(x)
	y, _ := a.Alloc(200)
	if x != y {
		t.Fatalf("freed block not reused: %#x vs %#x", x, y)
	}
}

func TestArenaExhaustion(t *testing.T) {
	a := NewArena(0, 256)
	if _, err := a.Alloc(128); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(128); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1); err == nil {
		t.Fatal("expected exhaustion error")
	}
}

func TestArenaDoubleFreePanics(t *testing.T) {
	a := NewArena(0, 1<<20)
	x, _ := a.Alloc(64)
	a.Free(x)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Free(x)
}

func TestArenaAllocZeroErrors(t *testing.T) {
	a := NewArena(0, 1<<20)
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("expected error for zero-size alloc")
	}
}

// returnsWithin runs f on its own goroutine and fails t unless f returns
// within d, so a call that hangs fails its test instead of stalling the run.
func returnsWithin(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("call did not return within %v", d)
	}
}

// hugeSizes have no size class: doubling the class toward them overflows.
var hugeSizes = []int64{maxClass + 1, math.MaxInt64}

func TestArenaAllocHugeSizeErrors(t *testing.T) {
	for _, n := range hugeSizes {
		returnsWithin(t, 3*time.Second, func() {
			if c, err := SizeClass(n); err == nil {
				t.Errorf("SizeClass(%d) = %d, want an error", n, c)
			}
			if addr, err := NewArena(0, 1<<20).Alloc(n); err == nil {
				t.Errorf("Arena.Alloc(%d) = %#x, want an error", n, addr)
			}
		})
	}
}

func TestClassRounding(t *testing.T) {
	cases := map[int64]int64{1: 64, 64: 64, 65: 128, 4096: 4096, 4097: 8192, maxClass: maxClass}
	for n, want := range cases {
		if got, err := class(n); err != nil || got != want {
			t.Errorf("class(%d) = %d, want %d", n, got, want)
		}
	}
}

// Property: live allocations never overlap.
func TestArenaNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint16, frees []uint8) bool {
		a := NewArena(0, 1<<24)
		var live []int64
		sz := make(map[int64]int64)
		for i, s := range sizes {
			n := int64(s%8192) + 1
			addr, err := a.Alloc(n)
			if err != nil {
				return true // exhaustion is fine
			}
			live = append(live, addr)
			sz[addr], _ = class(n)
			// Occasionally free something.
			if len(frees) > 0 && i < len(frees) && frees[i]%3 == 0 && len(live) > 0 {
				j := int(frees[i]) % len(live)
				a.Free(live[j])
				delete(sz, live[j])
				live = append(live[:j], live[j+1:]...)
			}
		}
		// Check pairwise disjointness of live blocks.
		addrs := a.Live()
		for i := 0; i < len(addrs)-1; i++ {
			if addrs[i]+sz[addrs[i]] > addrs[i+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
