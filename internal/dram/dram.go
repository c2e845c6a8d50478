// Package dram is a volatile byte store: the host main memory that peers
// read back with one-sided reads, such as RFP's result ring and ScaleRPC's
// staging buffer. Message rings and receive buffers are not stored here:
// software reads an inbound message from its completion, so the NIC keeps
// DMA'd bytes only in remote-readable regions (see package host's address
// layout). Contents are lost on a crash. CPU access latency is folded into
// the software-cost model (package host), so reads and writes here are
// content operations only.
//
// The store is sparse and keeps only what was written. A page's first write
// gives it one extent: the blockSize-aligned range covering the written
// bytes, backed by one slice, or the whole 4 KiB page if that range would
// pass half of it. A later write outside the extent makes the page whole,
// so a page allocates at most twice. A 43-byte redo-log entry therefore
// costs 256 bytes, while a 64 KiB object costs one page-sized allocation
// per page. pmem.Device keeps its durable contents in the same store.
package dram

const (
	// pageSize is the sparse backing granularity.
	pageSize = 4096
	// blockSize is the alignment and smallest size of a page's extent.
	blockSize = 256
)

// extent is a page's backing: bytes [lo, lo+len(b)) of the page. Unwritten
// bytes inside it are zero; bytes outside it were never written.
type extent struct {
	lo int
	b  []byte
}

// Memory is one host's DRAM, or the contents of a pmem.Device. The zero
// value is empty memory.
type Memory struct {
	pages map[int64]extent
}

// New returns empty memory.
func New() *Memory { return &Memory{} }

// Write stores b at addr. nil b is a no-op (timing-only traffic).
func (m *Memory) Write(addr int64, b []byte) {
	for len(b) > 0 {
		page := addr / pageSize
		off := int(addr % pageSize)
		n := min(pageSize-off, len(b))
		e := m.pages[page]
		if off < e.lo || off+n > e.lo+len(e.b) {
			e = m.grow(page, e, off, off+n)
		}
		copy(e.b[off-e.lo:], b[:n])
		addr += int64(n)
		b = b[n:]
	}
}

// grow replaces page's extent e with one covering both e and [lo, hi),
// keeping e's contents, and returns it: the blockSize-aligned [lo, hi) if
// the page is empty and that is at most half the page, else the whole page.
func (m *Memory) grow(page int64, e extent, lo, hi int) extent {
	lo &^= blockSize - 1
	hi = (hi + blockSize - 1) &^ (blockSize - 1)
	if len(e.b) > 0 || hi-lo > pageSize/2 {
		lo, hi = 0, pageSize
	}
	grown := extent{lo: lo, b: make([]byte, hi-lo)}
	if len(e.b) > 0 {
		copy(grown.b[e.lo-lo:], e.b)
	}
	if m.pages == nil {
		m.pages = make(map[int64]extent)
	}
	m.pages[page] = grown
	return grown
}

// Read returns n bytes at addr; unwritten bytes read as zero.
func (m *Memory) Read(addr int64, n int) []byte {
	return m.ReadInto(addr, make([]byte, n))
}

// ReadInto fills dst with the bytes at [addr, addr+len(dst)) and returns
// dst; unwritten bytes read as zero. The alloc-free Read for hot paths that
// reuse a scratch buffer.
func (m *Memory) ReadInto(addr int64, dst []byte) []byte {
	for o := 0; o < len(dst); {
		page := (addr + int64(o)) / pageSize
		off := int((addr + int64(o)) % pageSize)
		seg := dst[o : o+min(pageSize-off, len(dst)-o)]
		o += len(seg)
		e := m.pages[page]
		// seg covers page bytes [off, off+len(seg)); the extent covers
		// [e.lo, e.lo+len(e.b)). Zero what lies outside the extent.
		lo := min(max(e.lo-off, 0), len(seg))
		hi := max(min(e.lo+len(e.b)-off, len(seg)), lo)
		clear(seg[:lo])
		if lo < hi {
			copy(seg[lo:hi], e.b[off+lo-e.lo:])
		}
		clear(seg[hi:])
	}
	return dst
}

// Footprint returns the bytes of backing the store holds: the sum of its
// extents, which is at least what was written to it.
func (m *Memory) Footprint() int {
	n := 0
	for _, e := range m.pages {
		n += len(e.b)
	}
	return n
}

// Crash discards all contents: DRAM is volatile.
func (m *Memory) Crash() { m.pages = nil }
