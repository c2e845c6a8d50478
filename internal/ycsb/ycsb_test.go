package ycsb

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"prdma/internal/rpc"
	"prdma/internal/sim"
)

func TestZipfianRange(t *testing.T) {
	z := NewZipfian(sim.NewRand(1), 1000, 0.99)
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("zipfian out of range: %d", v)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	z := NewZipfian(sim.NewRand(2), 10000, 0.99)
	counts := make(map[int64]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Rank 0 should dominate: with theta=0.99 over 10k items it gets ~10%.
	if frac := float64(counts[0]) / draws; frac < 0.05 {
		t.Fatalf("head item got only %.1f%% of draws", frac*100)
	}
	// And the tail should still be hit.
	distinct := len(counts)
	if distinct < 1000 {
		t.Fatalf("only %d distinct keys drawn", distinct)
	}
}

func TestScrambledSpreadsHotKeys(t *testing.T) {
	z := NewZipfian(sim.NewRand(3), 10000, 0.99)
	counts := make(map[int64]int)
	for i := 0; i < 100000; i++ {
		k := z.Scrambled()
		if k < 0 || k >= 10000 {
			t.Fatalf("scrambled key out of range: %d", k)
		}
		counts[k]++
	}
	// The hottest key must not be key 0 by construction; find the top key
	// and check the distribution is still skewed.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 5000 {
		t.Fatalf("scrambling destroyed skew: max count %d", max)
	}
}

// TestZetaMemo pins the ζ memo: generators built concurrently over shared
// and distinct (n, θ) carry the sum computed term by term.
func TestZetaMemo(t *testing.T) {
	var wg sync.WaitGroup
	gens := make([]*Zipfian, 16)
	for i := range gens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gens[i] = NewZipfian(sim.NewRand(uint64(i)), int64(100+i%3), 0.9+0.01*float64(i%2))
		}(i)
	}
	wg.Wait()
	for _, z := range gens {
		want := 0.0
		for i := int64(1); i <= z.n; i++ {
			want += 1 / math.Pow(float64(i), z.theta)
		}
		if z.zetan != want {
			t.Fatalf("ζ(%d, %v) = %v, want %v", z.n, z.theta, z.zetan, want)
		}
	}
}

func TestZipfianDeterminism(t *testing.T) {
	a := NewZipfian(sim.NewRand(7), 1000, 0.99)
	b := NewZipfian(sim.NewRand(7), 1000, 0.99)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("zipfian not deterministic")
		}
	}
}

func TestWorkloadMixRatios(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Records = 1000
	cases := []struct {
		w           Workload
		wantWrites  float64
		wantScans   float64
		tol         float64
		rmwExpected bool
	}{
		{A, 0.50, 0, 0.03, false},
		{B, 0.05, 0, 0.02, false},
		{C, 0.00, 0, 0.001, false},
		{D, 0.05, 0, 0.02, false},
		{E, 0.05, 0.95, 0.02, false},
		{F, 0.25, 0, 0.03, true}, // 50% RMW -> 1/3 of ops are writes; per-pair accounting below
	}
	for _, c := range cases {
		g := NewGenerator(c.w, cfg)
		var reads, writes, scans, total int
		const draws = 20000
		for i := 0; i < draws; i++ {
			for _, r := range g.Next() {
				total++
				switch r.Op {
				case rpc.OpWrite:
					writes++
				case rpc.OpScan:
					scans++
				default:
					reads++
				}
			}
		}
		wf := float64(writes) / float64(total)
		sf := float64(scans) / float64(total)
		wantW, wantS := c.wantWrites, c.wantScans
		if c.w == F {
			// F emits read+write pairs for RMW: writes/total ~ 1/3.
			wantW = 1.0 / 3
		}
		if c.w == E {
			wantS = 0.95
		}
		if diff := wf - wantW; diff > c.tol || diff < -c.tol {
			t.Errorf("workload %v: write frac %.3f, want %.3f", c.w, wf, wantW)
		}
		if diff := sf - wantS; diff > 0.03 || diff < -0.03 {
			t.Errorf("workload %v: scan frac %.3f, want %.3f", c.w, sf, wantS)
		}
		if c.rmwExpected && g.RMWs == 0 {
			t.Errorf("workload %v: no RMWs", c.w)
		}
	}
}

func TestWorkloadDInsertsGrowKeyspace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Records = 100
	g := NewGenerator(D, cfg)
	for i := 0; i < 5000; i++ {
		g.Next()
	}
	if g.inserted <= 100 {
		t.Fatal("workload D never inserted")
	}
	// Latest-distribution reads target recent keys.
	recent := 0
	for i := 0; i < 1000; i++ {
		reqs := g.Next()
		r := reqs[0]
		if r.Op == rpc.OpRead && int64(r.Key) > g.inserted-64 {
			recent++
		}
	}
	if recent < 500 {
		t.Fatalf("only %d of ~950 reads hit recent keys", recent)
	}
}

func TestScanLengthsBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Records = 100
	g := NewGenerator(E, cfg)
	for i := 0; i < 5000; i++ {
		for _, r := range g.Next() {
			if r.Op == rpc.OpScan && (r.ScanLen < 1 || r.ScanLen > cfg.MaxScan) {
				t.Fatalf("scan length %d out of bounds", r.ScanLen)
			}
		}
	}
}

// TestGeneratorDeterministicStream pins the determinism contract the
// adversarial matrix leans on: for every core workload, a fixed (seed,
// config) pair reproduces the identical operation stream — op, key, size and
// scan length all equal, element by element.
func TestGeneratorDeterministicStream(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Records = 500
	cfg.Seed = 31
	for _, w := range Workloads {
		t.Run(w.String(), func(t *testing.T) {
			a, b := NewGenerator(w, cfg), NewGenerator(w, cfg)
			for i := 0; i < 3000; i++ {
				ra, rb := a.Next(), b.Next()
				if len(ra) != len(rb) {
					t.Fatalf("draw %d: %d vs %d requests", i, len(ra), len(rb))
				}
				for j := range ra {
					if ra[j].Op != rb[j].Op || ra[j].Key != rb[j].Key ||
						ra[j].Size != rb[j].Size || ra[j].ScanLen != rb[j].ScanLen {
						t.Fatalf("draw %d[%d]: %+v vs %+v", i, j, ra[j], rb[j])
					}
				}
			}
			if a.RMWs != b.RMWs {
				t.Fatalf("RMW counts diverged: %d vs %d", a.RMWs, b.RMWs)
			}
		})
	}
}

// TestGeneratorSeedVariesStream is the inverse pin: a different seed must
// produce a different stream, so seed sweeps genuinely vary the traffic.
func TestGeneratorSeedVariesStream(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Records = 500
	cfg.Seed = 31
	cfg2 := cfg
	cfg2.Seed = 32
	a, b := NewGenerator(A, cfg), NewGenerator(A, cfg2)
	for i := 0; i < 1000; i++ {
		ra, rb := a.Next(), b.Next()
		if ra[0].Op != rb[0].Op || ra[0].Key != rb[0].Key {
			return
		}
	}
	t.Fatal("1000 identical draws across different seeds")
}

// TestScanLengthDistribution checks workload E's scan lengths are uniform on
// [1, MaxScan]: every length occurs, frequencies stay near 1/MaxScan, and
// the mean sits at (MaxScan+1)/2.
func TestScanLengthDistribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Records = 1000
	cfg.MaxScan = 16
	g := NewGenerator(E, cfg)
	counts := make(map[int]int)
	scans, sum := 0, 0
	for i := 0; i < 40000; i++ {
		for _, r := range g.Next() {
			if r.Op != rpc.OpScan {
				continue
			}
			counts[r.ScanLen]++
			scans++
			sum += r.ScanLen
		}
	}
	if scans == 0 {
		t.Fatal("workload E produced no scans")
	}
	expect := float64(scans) / float64(cfg.MaxScan)
	for l := 1; l <= cfg.MaxScan; l++ {
		c := counts[l]
		if c == 0 {
			t.Errorf("scan length %d never drawn", l)
		}
		if f := float64(c); f < 0.8*expect || f > 1.2*expect {
			t.Errorf("scan length %d drawn %d times, want ~%.0f (uniform)", l, c, expect)
		}
	}
	mean := float64(sum) / float64(scans)
	want := float64(cfg.MaxScan+1) / 2
	if mean < want-0.3 || mean > want+0.3 {
		t.Errorf("mean scan length %.2f, want ~%.1f", mean, want)
	}
}

func TestMixReadFraction(t *testing.T) {
	f := func(fracRaw uint8) bool {
		frac := float64(fracRaw%101) / 100
		m := NewMix(frac, 1000, 64, 9)
		reads := 0
		const n = 5000
		for i := 0; i < n; i++ {
			if m.Next().Op == rpc.OpRead {
				reads++
			}
		}
		got := float64(reads) / n
		return got > frac-0.05 && got < frac+0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMixKeysInRange(t *testing.T) {
	m := NewMix(0.5, 500, 64, 10)
	for i := 0; i < 10000; i++ {
		if k := m.Next().Key; k >= 500 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestParseWorkloads(t *testing.T) {
	ws, err := ParseWorkloads("a,B F")
	if err != nil {
		t.Fatal(err)
	}
	want := []Workload{A, B, F}
	if !reflect.DeepEqual(ws, want) {
		t.Fatalf("got %v want %v", ws, want)
	}
	if _, err := ParseWorkloads("AG"); err == nil {
		t.Fatal("workload G should be rejected")
	}
	if _, err := ParseWorkloads(""); err == nil {
		t.Fatal("empty workload set should be rejected")
	}
}
