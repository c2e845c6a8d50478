package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(8)
	same := true
	a2 := NewRand(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(1)
	f := func(n uint8) bool {
		m := int(n%100) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(2)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandFloat64Mean(t *testing.T) {
	r := NewRand(3)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(4)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Exp(10)
		if v < 0 {
			t.Fatal("negative exponential draw")
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-10) > 0.3 {
		t.Fatalf("exp mean = %v, want ~10", mean)
	}
}

func TestRandNormMoments(t *testing.T) {
	r := NewRand(5)
	sum, sumsq := 0.0, 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Norm(3, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("norm mean = %v", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("norm stddev = %v", math.Sqrt(variance))
	}
}

func TestRandLogNormPositive(t *testing.T) {
	r := NewRand(6)
	for i := 0; i < 10000; i++ {
		if r.LogNorm(0, 1) <= 0 {
			t.Fatal("log-normal draw not positive")
		}
	}
}

func TestRandFork(t *testing.T) {
	r := NewRand(10)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked streams identical")
	}
}

func TestRandIntnPanics(t *testing.T) {
	r := NewRand(11)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Intn(0)
}

func TestRandInt63Family(t *testing.T) {
	r := NewRand(20)
	for i := 0; i < 1000; i++ {
		v := r.Int63n(77)
		if v < 0 || v >= 77 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Int63n(0)
}
