package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestTimeStringEquivalence pins Time.String byte-identical to
// time.Duration.String across edge cases and a broad random sweep of every
// magnitude band.
func TestTimeStringEquivalence(t *testing.T) {
	check := func(v int64) {
		t.Helper()
		want := time.Duration(v).String()
		if got := Time(v).String(); got != want {
			t.Fatalf("Time(%d).String() = %q, want %q", v, got, want)
		}
	}

	edges := []int64{
		0, 1, -1, 9, 10, 999, 1000, 1001, 999999, 1000000, 1000001,
		int64(time.Millisecond), int64(time.Second) - 1, int64(time.Second),
		int64(time.Second) + 1, int64(90 * time.Second), int64(time.Minute),
		int64(time.Hour) - 1, int64(time.Hour), int64(time.Hour) + 1,
		int64(26*time.Hour + 3*time.Minute + 4*time.Second + 5),
		int64(1200 * time.Microsecond), int64(2*time.Millisecond + 300),
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		-int64(time.Second), -int64(time.Hour + 500*time.Millisecond),
	}
	for _, v := range edges {
		check(v)
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		// Random magnitude band so ns, µs, ms, s, m, h all get coverage.
		bits := uint(rng.Intn(63) + 1)
		v := rng.Int63() & (1<<bits - 1)
		if rng.Intn(2) == 0 {
			v = -v
		}
		check(v)
	}
}

// TestTimeStringAllocs pins the formatter's allocation budget: String is one
// string allocation. Tracing formats a
// Time per event, so regressions here show up directly in parallel-run walls.
func TestTimeStringAllocs(t *testing.T) {
	v := Time(26*time.Hour + 3*time.Minute + 4*time.Second + 567891234)
	var sink string
	if n := testing.AllocsPerRun(200, func() { sink = v.String() }); n > 1 {
		t.Fatalf("Time.String allocates %.1f times per call, want <= 1", n)
	}
	_ = sink
}

func BenchmarkTimeString(b *testing.B) {
	v := Time(1234567) // 1.234567ms: the common trace-line magnitude
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = v.String()
	}
}
