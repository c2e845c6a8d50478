package trace

import "testing"

func fixedClock(t *int64) func() int64 {
	return func() int64 { return *t }
}

func TestEmitAndEvents(t *testing.T) {
	now := int64(0)
	tr := New(fixedClock(&now), 10)
	tr.Emit("a", "first %d", 1)
	now = 1000
	tr.Emit("b", "second")
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].Msg != "first 1" || evs[0].Cat != "a" || evs[0].AtNanos != 0 {
		t.Fatalf("ev0 = %+v", evs[0])
	}
	if evs[1].AtNanos != 1000 {
		t.Fatalf("ev1 = %+v", evs[1])
	}
}

func TestRingEviction(t *testing.T) {
	now := int64(0)
	tr := New(fixedClock(&now), 3)
	for i := 0; i < 7; i++ {
		now = int64(i)
		tr.Emit("x", "ev%d", i)
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].Msg != "ev4" || evs[2].Msg != "ev6" {
		t.Fatalf("ring order wrong: %+v", evs)
	}
}

func TestDefaultCapacity(t *testing.T) {
	now := int64(0)
	tr := New(fixedClock(&now), 0)
	if tr.max != 4096 {
		t.Fatalf("default max = %d", tr.max)
	}
}
