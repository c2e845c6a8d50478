package dram

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

func TestWriteRead(t *testing.T) {
	m := New()
	m.Write(100, []byte("hello"))
	if got := m.Read(100, 5); string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestCrossPage(t *testing.T) {
	m := New()
	data := bytes.Repeat([]byte{3}, 10000)
	m.Write(pageSize-17, data)
	if !bytes.Equal(m.Read(pageSize-17, 10000), data) {
		t.Fatal("cross-page round trip failed")
	}
}

func TestUnwrittenZero(t *testing.T) {
	m := New()
	if !bytes.Equal(m.Read(1<<40, 8), make([]byte, 8)) {
		t.Fatal("unwritten DRAM should read zero")
	}
}

func TestCrashClears(t *testing.T) {
	m := New()
	m.Write(0, []byte{1, 2, 3})
	m.Crash()
	if !bytes.Equal(m.Read(0, 3), []byte{0, 0, 0}) {
		t.Fatal("DRAM survived crash")
	}
}

func TestNilWriteNoop(t *testing.T) {
	m := New()
	m.Write(0, nil)
	m.Write(pageSize-1, []byte{})
	if len(m.pages) != 0 || m.Footprint() != 0 {
		t.Fatalf("nil write stored %d pages, %d bytes", len(m.pages), m.Footprint())
	}
}

// storeEvents counts the store transitions a write or read exercised.
type storeEvents struct {
	grewLeft, grewRight, turnedWhole, wholeOverExtent int
	readUnwritten, readPartial, readWhole             int
	crashes                                           int
}

// checkExtents fails unless every extent is blockSize-aligned, inside its
// page, and either at most half the page or the whole page.
func checkExtents(t *testing.T, m *Memory) {
	t.Helper()
	for page, e := range m.pages {
		n := len(e.b)
		whole := e.lo == 0 && n == pageSize
		if e.lo%blockSize != 0 || n%blockSize != 0 || n == 0 || e.lo+n > pageSize || (n > pageSize/2 && !whole) {
			t.Fatalf("page %d: bad extent [%d, %d)", page, e.lo, e.lo+n)
		}
	}
}

// TestRoundTripProperty drives the store and a flat byte array with the
// same fixed-seed sequence of writes, reads and crashes, and requires every
// read to return what the flat array holds. Writes mix message-sized,
// multi-block, whole-page and two-page sizes at page-aligned and unaligned
// offsets, so extents are created, grown by writes on either side of them,
// and overwritten whole; the test fails if any of those never happened.
func TestRoundTripProperty(t *testing.T) {
	const (
		pages = 12
		span  = pages * pageSize
		ops   = 20000
	)
	rng := rand.New(rand.NewSource(17))
	m := New()
	flat := make([]byte, span)
	var ev storeEvents
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r == 0:
			m.Crash()
			clear(flat)
			ev.crashes++
		case r < 55:
			var n int
			switch rng.Intn(4) {
			case 0:
				n = 1 + rng.Intn(64)
			case 1:
				n = 1 + rng.Intn(3*blockSize)
			case 2:
				n = pageSize
			default:
				n = 1 + rng.Intn(2*pageSize)
			}
			addr := rng.Intn(span - n + 1)
			if rng.Intn(3) == 0 {
				addr -= addr % pageSize
			}
			data := make([]byte, n)
			rng.Read(data)
			before := make(map[int64]extent, len(m.pages))
			for p, e := range m.pages {
				before[p] = e
			}
			m.Write(int64(addr), data)
			copy(flat[addr:], data)
			checkExtents(t, m)
			for p := int64(addr / pageSize); p <= int64((addr+n-1)/pageSize); p++ {
				old, had := before[p]
				e := m.pages[p]
				if !had {
					continue
				}
				if e.lo < old.lo {
					ev.grewLeft++
				}
				if e.lo+len(e.b) > old.lo+len(old.b) {
					ev.grewRight++
				}
				if len(old.b) < pageSize && len(e.b) == pageSize {
					ev.turnedWhole++
					if int64(addr) <= p*pageSize && int64(addr+n) >= (p+1)*pageSize {
						ev.wholeOverExtent++
					}
				}
			}
		default:
			addr := rng.Intn(span + pageSize)
			n := rng.Intn(3*pageSize + 1)
			// ReadInto must overwrite every byte of a reused buffer.
			got := m.ReadInto(int64(addr), bytes.Repeat([]byte{0xff}, n))
			want := make([]byte, n)
			if addr < span {
				copy(want, flat[addr:])
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: read [%d, %d) differs from the flat array", i, addr, addr+n)
			}
			for p := int64(addr / pageSize); n > 0 && p <= int64((addr+n-1)/pageSize); p++ {
				switch e, ok := m.pages[p]; {
				case !ok:
					ev.readUnwritten++
				case len(e.b) < pageSize:
					ev.readPartial++
				default:
					ev.readWhole++
				}
			}
		}
	}
	if got := m.Read(0, span); !bytes.Equal(got, flat) {
		t.Fatal("final contents differ from the flat array")
	}
	t.Logf("%+v", ev)
	for name, n := range map[string]int{
		"extent grew left": ev.grewLeft, "extent grew right": ev.grewRight,
		"page turned whole": ev.turnedWhole, "whole-page write over an extent": ev.wholeOverExtent,
		"read of an unwritten page": ev.readUnwritten, "read of a partial page": ev.readPartial,
		"read of a whole page": ev.readWhole, "crash": ev.crashes,
	} {
		if n == 0 {
			t.Errorf("sequence never exercised: %s", name)
		}
	}
}

// heapBytes returns the heap bytes and the number of objects f allocates,
// measured on one P.
func heapBytes(f func()) (uint64, uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestFootprintAllocRegression pins what the store allocates for what was
// written. The rpc message rings space their slots 64 KiB+256 B apart, so
// every small message lands on a page of its own: with whole 4 KiB pages
// on demand each 64 B message cost more than 4 096 B, and with extents it
// costs one 256 B block plus its map entry. Sequential 11 B appends (a
// small redo-log entry persists in 11 B chunks) must stay under twice the
// page in at most two objects, which pins the growth rule: the first
// append allocates 256 B and the first one past it the whole page. Growing
// in 256 B steps took nine objects and 3.25 times the page.
func TestFootprintAllocRegression(t *testing.T) {
	const (
		slots  = 64
		stride = 64<<10 + 256
	)
	msg := bytes.Repeat([]byte{0xa5}, 64)
	m := New()
	b, _ := heapBytes(func() {
		for i := 0; i < slots; i++ {
			m.Write(int64(i)*stride, msg)
		}
	})
	if per := b / slots; per > 512 {
		t.Errorf("64 B message in its own ring slot allocates %d B, want <= 512", per)
	} else {
		t.Logf("ring message: %d B per slot", per)
	}

	m = New()
	m.Write(0, msg) // the map exists and has room for another page
	page := bytes.Repeat([]byte{1}, pageSize)
	b, objs := heapBytes(func() { m.Write(8*pageSize, page) })
	if objs != 1 || b != pageSize {
		t.Errorf("whole-page write allocates %d B in %d objects, want one %d B page", b, objs, pageSize)
	}

	m = New()
	m.Write(8*pageSize, msg)
	entry := bytes.Repeat([]byte{2}, 11)
	b, objs = heapBytes(func() {
		for off := 0; off < pageSize; off += len(entry) {
			m.Write(int64(off), entry[:min(len(entry), pageSize-off)])
		}
	})
	if b > 2*pageSize || objs > 2 {
		t.Errorf("4 KiB of 11 B appends allocates %d B in %d objects, want <= %d B in <= 2", b, objs, 2*pageSize)
	} else {
		t.Logf("11 B appends: %d B in %d objects for one page", b, objs)
	}
}
