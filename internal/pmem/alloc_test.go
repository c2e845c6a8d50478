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
	if x != 0 || y != 128 {
		t.Fatalf("allocations at %#x and %#x, want 0x0 and 0x80 (bump by size class)", x, y)
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

// Property: allocations never overlap and stay inside the arena.
func TestArenaNoOverlapProperty(t *testing.T) {
	f := func(base uint16, sizes []uint16) bool {
		lo := int64(base) * 64
		a := NewArena(lo, 1<<24)
		end := lo
		for _, s := range sizes {
			n := int64(s%8192) + 1
			addr, err := a.Alloc(n)
			if err != nil {
				return true // exhaustion is fine
			}
			c, _ := class(n)
			// Each block starts at or after the previous one's end, so no
			// two blocks overlap.
			if addr < end || addr+c > lo+1<<24 {
				return false
			}
			end = addr + c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
