package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"prdma/internal/sim"
)

// tinyScale shrinks every pass so a whole workload runs in well under 3 s.
const tinyScale = 0.02

type specFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpecFile(t *testing.T) specFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s specFile
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny size:
// each must finish quickly, fail nothing, and emit exactly the metrics
// BENCHMARK.json names, with their units.
func TestWorkloadsTiny(t *testing.T) {
	spec := readSpecFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			start := time.Now()
			for _, traced := range []bool{false, true} {
				rep, err := measure(w, 1, 0, traced, tinyScale)
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("traced=%v: %d of %d ops failed; first: %v", traced, rep.failed, rep.attempted, rep.firstErr)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				got := rep.result().Metrics
				if len(got) != len(want) {
					t.Errorf("traced=%v: emitted %d metrics, BENCHMARK.json names %d", traced, len(got), len(want))
				}
				for _, m := range want {
					if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s: got %+v (present %v), want unit %s", traced, m.Name, g, ok, m.Unit)
					}
				}
				if traced {
					sum := 0.0
					for _, l := range cpuLayers {
						sum += got[l+".cpu_share"].Value
					}
					if sum != 0 && math.Abs(sum-100) > 1 {
						t.Errorf("cpu shares sum to %.2f %%", sum)
					}
				}
			}
			if d := time.Since(start); d > 3*time.Second {
				t.Errorf("took %v at tiny size", d)
			}
		})
	}
}

// passFingerprint runs one tiny pass of l and returns its fingerprint.
func passFingerprint(t *testing.T, prepare func(uint64, float64) (func(*tracer) *passResult, error)) uint64 {
	t.Helper()
	pass, err := prepare(3, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	res := pass(nil)
	for _, c := range res.clients {
		if c.failed != 0 {
			t.Fatalf("client %d: %v", c.id, c.firstErr)
		}
	}
	return res.fingerprint()
}

func TestFingerprintRepeats(t *testing.T) {
	for _, w := range workloads {
		a, b := passFingerprint(t, w.prepare), passFingerprint(t, w.prepare)
		if a != b {
			t.Errorf("%s: fingerprint %016x then %016x", w.name, a, b)
		}
	}
}

func TestKVFingerprintIndependentOfWorkers(t *testing.T) {
	one, two := kvCluster, kvCluster
	one.workers, two.workers = 1, 2
	a, b := passFingerprint(t, one.prepare), passFingerprint(t, two.prepare)
	if a != b {
		t.Errorf("kv_cluster fingerprint %016x at 1 worker, %016x at 2", a, b)
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		frames []string // leaf first
		want   string
	}{
		{[]string{"runtime.memmove", "prdma/internal/rpc.encodeReqInto", "prdma/internal/rpc.(*durableClient).issue", "main.rpcLoad.drive"}, "rpc"},
		{[]string{"runtime.mallocgc", "runtime.growslice", "prdma/internal/sim.(*Kernel).scheduleEvent", "prdma/internal/rnic.(*NIC).post"}, "sim"},
		{[]string{"prdma/internal/sim.(*Chan[go.shape.int]).Pop", "prdma/internal/rpc.(*conn).startWriteDrain.func1"}, "sim"},
		{[]string{"prdma/internal/ycsb.(*Zipfian).Next", "main.kvLoad.drive", "prdma/internal/sim.(*Kernel).Go.func1"}, "workload_gen"},
		{[]string{"bytes.Equal", "main.(*patterns).check", "main.kvLoad.drive", "prdma/internal/sim.(*Kernel).Go.func1"}, "bench"},
		{[]string{"runtime.nanotime", "time.Now", "prdma/benchmark.(*client).record", "prdma/internal/sim.(*Kernel).Go.func1"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime_gc"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime_other"},
		{nil, "runtime_other"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestSpanHookFreeWhenOff pins the span hook at zero allocations with
// tracing off.
func TestSpanHookFreeWhenOff(t *testing.T) {
	c := newClient(0, nil)
	now := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		c.span(c.newID(), nameGet, 0, now, now, sim.Time(1), sim.Time(2))
	})
	if allocs != 0 {
		t.Errorf("span hook allocates %v times per call with tracing off", allocs)
	}
}

func TestPatternsCheck(t *testing.T) {
	for _, size := range []int{64, 64 << 10} {
		pt := newPatterns(1, size)
		buf := make([]byte, size)
		if v, err := pt.check(buf, 7); v != 0 || err != nil {
			t.Errorf("size %d: unwritten object: version %d, %v", size, v, err)
		}
		pt.fill(buf, 7, 3)
		if v, err := pt.check(buf, 7); v != 3 || err != nil {
			t.Errorf("size %d: version %d, %v; want 3", size, v, err)
		}
		if _, err := pt.check(buf, 8); err == nil {
			t.Errorf("size %d: payload of key 7 passed as key 8", size)
		}
		stale := make([]byte, size)
		pt.fill(stale, 7, 2)
		copy(buf[size-40:], stale[size-40:]) // a torn tail from the older version
		if _, err := pt.check(buf, 7); err == nil {
			t.Errorf("size %d: torn payload passed", size)
		}
	}
}

// TestHistBuckets checks that every value lands in a bucket whose middle is
// within 0.8 % of it, and that percentiles are read in rank order.
func TestHistBuckets(t *testing.T) {
	for _, v := range []uint32{0, 1, 255, 256, 257, 511, 512, 1000, 12345, 1 << 20, 3e9, math.MaxUint32} {
		i := bucketOf(v)
		if i < 0 || i >= nBuckets {
			t.Fatalf("bucketOf(%d) = %d, outside [0, %d)", v, i, nBuckets)
		}
		if mid := bucketMid(i); math.Abs(mid-float64(v)) > 0.008*float64(v) {
			t.Errorf("value %d: bucket %d middle %.1f", v, i, mid)
		}
	}
	var h hist
	for v := uint32(1); v <= 1000; v++ {
		h[bucketOf(v*1000)]++ // 1 µs .. 1 ms
	}
	if p50, n := percentile([]*hist{&h}, 50); n != 1000 || math.Abs(p50-500) > 4 {
		t.Errorf("p50 = %.2f µs of %d values, want about 500 of 1000", p50, n)
	}
	if p99, _ := percentile([]*hist{&h}, 99); math.Abs(p99-990) > 8 {
		t.Errorf("p99 = %.2f µs, want about 990", p99)
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{4, 2}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "x", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "y", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		m    specMetric
		b    []float64
		want string
	}{
		{lower, []float64{104, 105, 103, 104, 104}, "within bound"},
		{lower, []float64{120, 121, 119, 120, 120}, "worse"},
		{lower, []float64{80, 81, 79, 80, 80}, "better"},
		{higher, []float64{80, 81, 79, 80, 80}, "worse"},
		{lower, []float64{50, 150, 100, 60, 140}, "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(c.m, base, c.b); got != c.want {
			t.Errorf("%s better %s, B=%v: %s, want %s", c.m.Name, c.m.Better, c.b, got, c.want)
		}
	}
}
