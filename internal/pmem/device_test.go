package pmem

import (
	"bytes"
	"testing"
	"time"

	"prdma/internal/sim"
)

func newDev() (*sim.Kernel, *Device) {
	k := sim.New()
	return k, New(k, DefaultParams())
}

func TestPersistCostAsymmetry(t *testing.T) {
	_, d := newDev()
	dma := d.PersistCost(65536, DMA)
	cpu := d.PersistCost(65536, CPU)
	if cpu <= dma {
		t.Fatalf("CPU persist (%v) should be slower than DMA persist (%v)", cpu, dma)
	}
	// 64 KiB at 2 GB/s is ~32.8us plus base.
	want := 500*time.Nanosecond + time.Duration(65536/2e9*1e9)
	if dma != want {
		t.Fatalf("dma cost = %v, want %v", dma, want)
	}
}

func TestPersistMakesDataDurable(t *testing.T) {
	k, d := newDev()
	data := []byte("hello persistent world")
	end := d.Persist(k.Now(), 100, len(data), data, DMA)
	k.RunUntil(end)
	if got := d.ReadBytes(100, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
}

func TestPersistNotDurableBeforeCompletion(t *testing.T) {
	k, d := newDev()
	data := bytes.Repeat([]byte{0xAB}, 1024)
	d.Persist(k.Now(), 0, len(data), data, DMA)
	// Immediately (no events run) nothing is durable.
	if got := d.ReadBytes(0, 1024); !bytes.Equal(got, make([]byte, 1024)) {
		t.Fatal("data durable before any virtual time elapsed")
	}
	k.Run()
	if got := d.ReadBytes(0, 1024); !bytes.Equal(got, data) {
		t.Fatal("data not durable after completion")
	}
}

func TestCrashMidPersistTearsPrefix(t *testing.T) {
	k, d := newDev()
	data := bytes.Repeat([]byte{0xCD}, 64*1024)
	end := d.Persist(k.Now(), 0, len(data), data, DMA)
	// Crash halfway through the persist.
	half := sim.Time(0).Add(end.Sub(sim.Time(0)) / 2)
	k.RunUntil(half)
	d.Crash()
	k.Run()
	got := d.ReadBytes(0, len(data))
	// Some prefix must be durable, the tail must not be.
	if got[0] != 0xCD {
		t.Fatal("no prefix durable after half the persist time")
	}
	if got[len(got)-1] == 0xCD {
		t.Fatal("tail durable despite crash mid-persist")
	}
	// Durable region is a prefix: once we see a zero, all later bytes are zero.
	seenZero := false
	for _, b := range got {
		if b == 0 {
			seenZero = true
		} else if seenZero {
			t.Fatal("durable bytes are not a prefix")
		}
	}
}

func TestAtomicUnitPersistIsAllOrNothing(t *testing.T) {
	for _, runFrac := range []float64{0.01, 0.5, 0.99, 1.0} {
		k, d := newDev()
		data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		end := d.Persist(k.Now(), 0, 8, data, CPU)
		k.RunUntil(sim.Time(float64(end) * runFrac))
		d.Crash()
		k.Run()
		got := d.ReadBytes(0, 8)
		zero := bytes.Equal(got, make([]byte, 8))
		full := bytes.Equal(got, data)
		if !zero && !full {
			t.Fatalf("8-byte persist tore at frac=%v: %v", runFrac, got)
		}
	}
}

func TestMediaContentionQueues(t *testing.T) {
	k, d := newDev()
	// Same channel block: must queue.
	e1 := d.Persist(k.Now(), 0, 1024, nil, DMA)
	e2 := d.Persist(k.Now(), 2048, 1024, nil, DMA)
	if e2 <= e1 {
		t.Fatalf("same-channel persists did not queue: e1=%v e2=%v", e1, e2)
	}
	cost := d.PersistCost(1024, DMA)
	if e2 != sim.Time(0).Add(2*cost) {
		t.Fatalf("e2 = %v, want %v", e2, 2*cost)
	}
}

func TestReadSyncReturnsDurableData(t *testing.T) {
	k, d := newDev()
	d.WriteRaw(500, []byte("abc"))
	var got []byte
	k.Go("r", func(p *sim.Proc) {
		got = d.ReadSync(p, 500, 3)
	})
	k.Run()
	if string(got) != "abc" {
		t.Fatalf("got %q", got)
	}
	if k.Now() == 0 {
		t.Fatal("read consumed no virtual time")
	}
}

func TestPersistSyncBlocksForDuration(t *testing.T) {
	k, d := newDev()
	var done sim.Time
	d.PersistFunc(0, 4096, nil, CPU, func() { done = k.Now() })
	k.Run()
	if done != sim.Time(0).Add(d.PersistCost(4096, CPU)) {
		t.Fatalf("done = %v", done)
	}
}

func TestSparsePagesCrossBoundary(t *testing.T) {
	k, d := newDev()
	data := bytes.Repeat([]byte{7}, 100)
	addr := int64(4096 - 50) // straddles a 4 KiB page boundary
	end := d.Persist(k.Now(), addr, len(data), data, DMA)
	k.RunUntil(end)
	if got := d.ReadBytes(addr, 100); !bytes.Equal(got, data) {
		t.Fatal("cross-page write corrupted")
	}
	// Neighbouring bytes untouched.
	if d.ReadBytes(addr-1, 1)[0] != 0 || d.ReadBytes(addr+100, 1)[0] != 0 {
		t.Fatal("write spilled outside its range")
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	_, d := newDev()
	if !bytes.Equal(d.ReadBytes(1<<30, 16), make([]byte, 16)) {
		t.Fatal("unwritten PM should read zero")
	}
}

func TestPersistNilDataTimingOnly(t *testing.T) {
	k, d := newDev()
	end := d.Persist(k.Now(), 0, 1<<20, nil, DMA)
	if end <= 0 {
		t.Fatal("nil-data persist should still cost time")
	}
	k.Run()
	if n := d.mem.Footprint(); n != 0 {
		t.Fatalf("nil-data persist stored %d bytes", n)
	}
}

func TestPersistOverlongDataPanics(t *testing.T) {
	k, d := newDev()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Persist(k.Now(), 0, 3, []byte("too long"), DMA)
}

func TestPersistSparsePrefix(t *testing.T) {
	// A short data slice carries real contents for the prefix while the
	// full n bytes are timed (synthetic payload with a real header).
	k, d := newDev()
	end := d.Persist(k.Now(), 0, 4096, []byte("hdr!"), DMA)
	if end != sim.Time(0).Add(d.PersistCost(4096, DMA)) {
		t.Fatalf("sparse persist mistimed: %v", end)
	}
	k.Run()
	if got := string(d.ReadBytes(0, 4)); got != "hdr!" {
		t.Fatalf("prefix = %q", got)
	}
	if d.ReadBytes(4096-1, 1)[0] != 0 {
		t.Fatal("tail should be contentless")
	}
}

func TestCrashResetsQueue(t *testing.T) {
	k, d := newDev()
	d.Persist(k.Now(), 0, 1<<20, nil, DMA) // long op occupies the media
	k.RunFor(time.Microsecond)
	d.Crash()
	// After restart, a new persist should start from now, not queue behind
	// the aborted op.
	end := d.Persist(k.Now(), 0, 64, nil, DMA)
	if end.Sub(k.Now()) > 2*d.PersistCost(64, DMA) {
		t.Fatalf("post-crash persist queued behind dead op: %v", end.Sub(k.Now()))
	}
}

func TestStatsCounters(t *testing.T) {
	k, d := newDev()
	d.Persist(k.Now(), 0, 100, nil, DMA)
	d.Read(k.Now(), 0, 100)
	if d.PersistOps != 1 || d.PersistBytes != 100 || d.ReadOps != 1 {
		t.Fatalf("counters: %d %d %d", d.PersistOps, d.PersistBytes, d.ReadOps)
	}
}

func TestChannelsParallelism(t *testing.T) {
	// Persists to different channel blocks proceed in parallel; persists to
	// the same block queue.
	k, d := newDev()
	e1 := d.Persist(k.Now(), 0, 1024, nil, DMA)
	e2 := d.Persist(k.Now(), channelBlock, 1024, nil, DMA) // other channel
	if e2 != e1 {
		t.Fatalf("cross-channel persists should not queue: %v vs %v", e1, e2)
	}
	e3 := d.Persist(k.Now(), 64, 1024, nil, DMA) // same channel as e1
	if e3 <= e1 {
		t.Fatalf("same-channel persist should queue: %v vs %v", e3, e1)
	}
}
