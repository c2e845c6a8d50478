package rnic

import "testing"

// TestCloneForTransferPooledReusesStruct pins the pooled transfer-clone
// lifecycle: the clone is a deep copy with one reference, receiver-side
// ref/unref count on it, the release hook fires exactly once at zero, and a
// later clone into the same slab slot reuses the struct.
func TestCloneForTransferPooledReusesStruct(t *testing.T) {
	src := &wireMsg{Kind: wWrite, SrcQP: 3, DstQP: 4, Seq: 9, Addr: 0x100, N: 3,
		Data: []byte{1, 2, 3}}
	released := 0
	rel := func() { released++ }

	c := src.CloneForTransferPooled(nil, rel).(*wireMsg)
	if c == src || c.Kind != wWrite || c.Seq != 9 || c.refs != 1 || c.nic != nil {
		t.Fatalf("bad clone: %+v", c)
	}
	if &c.Data[0] == &src.Data[0] {
		t.Fatal("clone must not share buffers with the source")
	}
	src.Data[0] = 99 // sender reuses its buffer; the clone must not see it
	if c.Data[0] != 1 {
		t.Fatalf("clone data corrupted by sender reuse: %v", c.Data)
	}

	// A receiver retention beyond the delivery reference.
	c.ref()
	if c.refs != 2 {
		t.Fatalf("refs=%d after ref, want 2", c.refs)
	}
	c.DropTransferRef() // fabric drops its delivery reference
	if released != 0 {
		t.Fatal("released while the receiver still holds a reference")
	}
	c.unref() // receiver done
	if released != 1 {
		t.Fatalf("release fired %d times, want 1", released)
	}
	if c.Data != nil || c.xrel != nil {
		t.Fatalf("parked clone retains buffers: %+v", c)
	}

	// The next crossing reuses the parked struct; only the Data copy is new.
	c2 := src.CloneForTransferPooled(c, rel).(*wireMsg)
	if c2 != c {
		t.Fatal("slab slot's previous clone not reused")
	}
	if c2.refs != 1 || c2.Data[0] != 99 || c2.N != 3 {
		t.Fatalf("reused clone not reinitialized: %+v", c2)
	}
}

// TestCloneForTransferPooledAllocs pins the allocation cost of a pooled
// clone: zero for timing-only messages (the vast majority of crossings),
// exactly the fresh Data copy for data-carrying ones — buffers are
// never recycled because receivers retain them past the reference count.
func TestCloneForTransferPooledAllocs(t *testing.T) {
	rel := func() {}
	nilMsg := &wireMsg{Kind: wAck, Seq: 1}
	var prev interface{} = nilMsg.CloneForTransferPooled(nil, rel)
	prev.(*wireMsg).DropTransferRef()
	if got := testing.AllocsPerRun(100, func() {
		c := nilMsg.CloneForTransferPooled(prev, rel)
		c.(*wireMsg).DropTransferRef()
		prev = c
	}); got != 0 {
		t.Fatalf("nil-payload pooled clone allocates %.1f, want 0", got)
	}

	dataMsg := &wireMsg{Kind: wWrite, N: 64, Data: make([]byte, 64)}
	prev = dataMsg.CloneForTransferPooled(nil, rel)
	prev.(*wireMsg).DropTransferRef()
	if got := testing.AllocsPerRun(100, func() {
		c := dataMsg.CloneForTransferPooled(prev, rel)
		c.(*wireMsg).DropTransferRef()
		prev = c
	}); got != 1 {
		t.Fatalf("data-carrying pooled clone allocates %.1f, want exactly 1 (the Data copy)", got)
	}
}
