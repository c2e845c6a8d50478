// Package cache models the CPU last-level cache as it matters to remote
// persistence: a volatile dirty-byte overlay in front of persistent memory.
//
// With Intel DDIO enabled, inbound RNIC DMA is steered into the LLC instead
// of the memory controller (paper §2.3). Data there is visible to CPU loads
// — and, crucially, to subsequent RDMA reads, which is why the SNIA
// read-after-write persistence check is defeated (§2.4) — but it is lost on
// a power failure until the CPU explicitly writes it back with
// clflush/clwb (§4.4.2).
package cache

import (
	"time"

	"prdma/internal/pmem"
	"prdma/internal/sim"
)

// LineSize is the coherence granularity. Dirty state is tracked per line.
const LineSize = 64

// LLC is a last-level-cache model for one host.
type LLC struct {
	K  *sim.Kernel
	PM *pmem.Device

	// dirty maps line-aligned addresses to line contents not yet in PM.
	// Lines may be partially valid; we store whole lines and fill from PM
	// on allocation, which is exactly what a write-allocate cache does.
	dirty map[int64][]byte

	// Flushes counts clflush operations for model introspection.
	Flushes int64
	// DirtyBytesPeak tracks the high-water mark of volatile dirty data.
	DirtyBytesPeak int
}

// New returns an empty cache in front of pm.
func New(k *sim.Kernel, pm *pmem.Device) *LLC {
	return &LLC{K: k, PM: pm, dirty: make(map[int64][]byte)}
}

// InstallDirty places data into the cache (DDIO DMA or CPU stores) without
// persisting it. Contents become visible to Read immediately; they are
// volatile until Clflush. data may be nil, or shorter than n, for
// timing-only traffic with a real prefix: the remaining lines are marked
// dirty with zero contents so that crash/flush accounting still works.
func (c *LLC) InstallDirty(addr int64, n int, data []byte) {
	if n <= 0 {
		return
	}
	end := addr + int64(n)
	for a := alignDown(addr); a < end; a += LineSize {
		line, ok := c.dirty[a]
		if !ok {
			// Write-allocate: fill the line from PM so partially
			// overwritten lines keep their durable bytes visible.
			line = c.PM.ReadBytes(a, LineSize)
			c.dirty[a] = line
		}
		if data != nil {
			lo := max64(a, addr)
			hi := min64(a+LineSize, end)
			srcLo, srcHi := lo-addr, hi-addr
			if srcLo >= int64(len(data)) {
				continue // synthetic tail
			}
			if srcHi > int64(len(data)) {
				srcHi = int64(len(data))
			}
			copy(line[lo-a:], data[srcLo:srcHi])
		}
	}
	if n := len(c.dirty) * LineSize; n > c.DirtyBytesPeak {
		c.DirtyBytesPeak = n
	}
}

// Read returns the bytes of [addr, addr+n) as the CPU (or a DDIO-served
// RDMA read) would see them: dirty cache lines take precedence over PM.
func (c *LLC) Read(addr int64, n int) []byte {
	return c.ReadInto(addr, make([]byte, n))
}

// ReadInto fills dst with the bytes of [addr, addr+len(dst)) — PM contents
// overlaid with dirty cache lines — and returns dst. The alloc-free Read
// for hot paths that reuse a scratch buffer.
func (c *LLC) ReadInto(addr int64, dst []byte) []byte {
	n := len(dst)
	c.PM.ReadBytesInto(addr, dst)
	end := addr + int64(n)
	for a := alignDown(addr); a < end; a += LineSize {
		line, ok := c.dirty[a]
		if !ok {
			continue
		}
		lo := max64(a, addr)
		hi := min64(a+LineSize, end)
		copy(dst[lo-addr:hi-addr], line[lo-a:hi-a])
	}
	return dst
}

// DirtyIn reports whether any line of [addr, addr+n) is dirty (volatile).
func (c *LLC) DirtyIn(addr int64, n int) bool {
	end := addr + int64(n)
	for a := alignDown(addr); a < end; a += LineSize {
		if _, ok := c.dirty[a]; ok {
			return true
		}
	}
	return false
}

// DirtyBytes returns the current volatile byte count.
func (c *LLC) DirtyBytes() int { return len(c.dirty) * LineSize }

// Clflush writes the dirty lines of [addr, addr+n) back to PM over the CPU
// persist path and returns the completion time of the resulting persist.
// Clean ranges cost nothing and complete immediately.
func (c *LLC) Clflush(at sim.Time, addr int64, n int) sim.Time {
	c.Flushes++
	end := addr + int64(n)
	done := at
	for a := alignDown(addr); a < end; a += LineSize {
		line, ok := c.dirty[a]
		if !ok {
			continue
		}
		t := c.PM.Persist(at, a, LineSize, line, pmem.CPU)
		if t > done {
			done = t
		}
		delete(c.dirty, a)
	}
	return done
}

// ClflushSync flushes and blocks p until the data is durable.
func (c *LLC) ClflushSync(p *sim.Proc, addr int64, n int) {
	done := c.Clflush(p.K.Now(), addr, n)
	p.Sleep(done.Sub(p.K.Now()))
}

// ClflushFunc flushes and runs fn once the data is durable: ClflushSync
// for a caller that is a kernel callback, with the same one event.
func (c *LLC) ClflushFunc(addr int64, n int, fn func()) {
	done := c.Clflush(c.K.Now(), addr, n)
	c.K.AfterFunc(done.Sub(c.K.Now()), fn)
}

// FlushCost estimates the CPU-path persist time for n dirty bytes without
// performing the flush (used by timing-only fast paths).
func (c *LLC) FlushCost(n int) time.Duration {
	return c.PM.PersistCost(n, pmem.CPU)
}

// Crash discards all dirty lines: they were volatile.
func (c *LLC) Crash() {
	c.dirty = make(map[int64][]byte)
}

func alignDown(a int64) int64 { return a &^ (LineSize - 1) }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
