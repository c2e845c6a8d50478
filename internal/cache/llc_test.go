package cache

import (
	"bytes"
	"testing"
	"testing/quick"

	"prdma/internal/pmem"
	"prdma/internal/sim"
)

func newLLC() (*sim.Kernel, *pmem.Device, *LLC) {
	k := sim.New()
	pm := pmem.New(k, pmem.DefaultParams())
	return k, pm, New(k, pm)
}

func TestDirtyDataVisibleButVolatile(t *testing.T) {
	k, pm, c := newLLC()
	data := []byte("ddio placed me in the cache")
	c.InstallDirty(1000, len(data), data)
	if got := c.Read(1000, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("cache read = %q", got)
	}
	// PM does not have it: this is the read-after-write trap.
	if got := pm.ReadBytes(1000, len(data)); bytes.Equal(got, data) {
		t.Fatal("dirty data leaked to PM without a flush")
	}
	c.Crash()
	if got := c.Read(1000, len(data)); bytes.Equal(got, data) {
		t.Fatal("dirty data survived a crash")
	}
	_ = k
}

func TestClflushPersists(t *testing.T) {
	k, pm, c := newLLC()
	data := bytes.Repeat([]byte{0x5A}, 256)
	c.InstallDirty(0, len(data), data)
	done := c.Clflush(k.Now(), 0, len(data))
	k.RunUntil(done)
	if got := pm.ReadBytes(0, len(data)); !bytes.Equal(got, data) {
		t.Fatal("clflush did not persist data")
	}
	if c.DirtyIn(0, len(data)) {
		t.Fatal("lines still dirty after clflush")
	}
	// After flush, crash loses nothing.
	c.Crash()
	if got := c.Read(0, len(data)); !bytes.Equal(got, data) {
		t.Fatal("persisted data lost after crash")
	}
}

func TestClflushCleanRangeIsFree(t *testing.T) {
	k, _, c := newLLC()
	done := c.Clflush(k.Now(), 0, 4096)
	if done != k.Now() {
		t.Fatalf("clean flush cost time: %v", done)
	}
}

func TestPartialLineWritePreservesDurableBytes(t *testing.T) {
	k, pm, c := newLLC()
	// Durable bytes first.
	pm.WriteRaw(0, bytes.Repeat([]byte{1}, 64))
	// Dirty just the middle of the line.
	c.InstallDirty(16, 8, bytes.Repeat([]byte{2}, 8))
	got := c.Read(0, 64)
	for i, b := range got {
		want := byte(1)
		if i >= 16 && i < 24 {
			want = 2
		}
		if b != want {
			t.Fatalf("byte %d = %d, want %d", i, b, want)
		}
	}
	// Flush writes the merged line.
	done := c.Clflush(k.Now(), 0, 64)
	k.RunUntil(done)
	if pm.ReadBytes(20, 1)[0] != 2 || pm.ReadBytes(0, 1)[0] != 1 {
		t.Fatal("merged line not persisted correctly")
	}
}

func TestReadMergesCacheAndPM(t *testing.T) {
	_, pm, c := newLLC()
	pm.WriteRaw(0, bytes.Repeat([]byte{9}, 192))
	c.InstallDirty(64, 64, bytes.Repeat([]byte{8}, 64))
	got := c.Read(0, 192)
	if got[0] != 9 || got[64] != 8 || got[128] != 9 {
		t.Fatalf("merge wrong: %v %v %v", got[0], got[64], got[128])
	}
}

func TestDirtyTrackingAndPeak(t *testing.T) {
	_, _, c := newLLC()
	c.InstallDirty(0, 128, nil)
	if !c.DirtyIn(0, 1) || !c.DirtyIn(64, 64) {
		t.Fatal("DirtyIn false for dirty range")
	}
	if c.DirtyIn(128, 64) {
		t.Fatal("DirtyIn true for clean range")
	}
	if c.DirtyBytes() != 128 {
		t.Fatalf("DirtyBytes = %d", c.DirtyBytes())
	}
	if c.DirtyBytesPeak != 128 {
		t.Fatalf("peak = %d", c.DirtyBytesPeak)
	}
}

// TestClflushSyncBlocks checks that ClflushFunc's continuation waits for
// the flush: it runs once the dirty data is durable, which takes time.
func TestClflushSyncBlocks(t *testing.T) {
	k, _, c := newLLC()
	c.InstallDirty(0, 4096, nil)
	var done sim.Time
	c.ClflushFunc(0, 4096, func() {
		done = k.Now()
		if c.DirtyIn(0, 4096) {
			t.Error("lines still dirty when the flush completed")
		}
	})
	k.Run()
	if done == 0 {
		t.Fatal("flush of dirty data consumed no time")
	}
}

func TestUnalignedRanges(t *testing.T) {
	_, _, c := newLLC()
	c.InstallDirty(100, 10, []byte("0123456789"))
	got := c.Read(100, 10)
	if string(got) != "0123456789" {
		t.Fatalf("got %q", got)
	}
	if !c.DirtyIn(64, 1) || !c.DirtyIn(105, 1) {
		t.Fatal("line covering unaligned write not dirty")
	}
}

// Property: read-your-writes — Read always returns the most recent
// InstallDirty contents for any byte, regardless of overlap pattern.
func TestReadYourWritesProperty(t *testing.T) {
	type op struct {
		Addr uint16
		Len  uint8
		Val  byte
	}
	f := func(ops []op) bool {
		_, _, c := newLLC()
		shadow := make(map[int64]byte)
		for _, o := range ops {
			n := int(o.Len%200) + 1
			data := bytes.Repeat([]byte{o.Val}, n)
			c.InstallDirty(int64(o.Addr), n, data)
			for i := 0; i < n; i++ {
				shadow[int64(o.Addr)+int64(i)] = o.Val
			}
		}
		for a, v := range shadow {
			if c.Read(a, 1)[0] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: after Clflush of everything, PM equals the cache view and a
// crash changes nothing.
func TestFlushThenCrashEquivalenceProperty(t *testing.T) {
	f := func(vals []byte) bool {
		if len(vals) == 0 {
			return true
		}
		k, pm, c := newLLC()
		c.InstallDirty(0, len(vals), vals)
		view := c.Read(0, len(vals))
		done := c.Clflush(k.Now(), 0, len(vals))
		k.RunUntil(done)
		c.Crash()
		after := c.Read(0, len(vals))
		return bytes.Equal(view, after) && bytes.Equal(pm.ReadBytes(0, len(vals)), view)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
