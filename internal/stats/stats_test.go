package stats

import (
	"testing"
	"testing/quick"
	"time"
)

func mkLatency(vals ...int) *Latency {
	l := NewLatency(len(vals))
	for _, v := range vals {
		l.Add(time.Duration(v) * time.Microsecond)
	}
	return l
}

func TestPercentileNearestRank(t *testing.T) {
	l := mkLatency(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	cases := []struct {
		p    float64
		want int
	}{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	}
	for _, c := range cases {
		if got := l.Percentile(c.p); got != time.Duration(c.want)*time.Microsecond {
			t.Errorf("P%v = %v, want %dus", c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	l := NewLatency(0)
	if l.Percentile(99) != 0 || l.Mean() != 0 || l.Sum() != 0 {
		t.Fatal("empty recorder should return zeros")
	}
}

func TestMeanMinMaxSum(t *testing.T) {
	l := mkLatency(2, 4, 6)
	if l.Mean() != 4*time.Microsecond {
		t.Fatalf("mean = %v", l.Mean())
	}
	// Percentile 0 and 100 are the smallest and the largest sample.
	if l.Percentile(0) != 2*time.Microsecond || l.Percentile(100) != 6*time.Microsecond {
		t.Fatal("min/max wrong")
	}
	if l.Sum() != 12*time.Microsecond {
		t.Fatalf("sum = %v", l.Sum())
	}
}

func TestAddAfterSortResorts(t *testing.T) {
	l := mkLatency(5, 1)
	_ = l.Percentile(50) // forces sort
	l.Add(0)
	if l.Percentile(0) != 0 {
		t.Fatal("Add after sort not re-sorted")
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		l := NewLatency(len(raw))
		lo, hi := raw[0], raw[0]
		for _, v := range raw {
			l.Add(time.Duration(v))
			lo, hi = min(lo, v), max(hi, v)
		}
		p := float64(pRaw%100) + 1
		v := l.Percentile(p)
		return v >= time.Duration(lo) && v <= time.Duration(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		l := NewLatency(len(raw))
		for _, v := range raw {
			l.Add(time.Duration(v))
		}
		prev := time.Duration(-1)
		for _, p := range []float64{10, 25, 50, 75, 90, 95, 99, 99.9, 100} {
			v := l.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThroughput(t *testing.T) {
	th := Throughput{Ops: 1000, Elapsed: time.Second}
	if th.KOPS() != 1.0 {
		t.Fatalf("KOPS = %v", th.KOPS())
	}
	if (Throughput{Ops: 5}).KOPS() != 0 {
		t.Fatal("zero elapsed should yield 0")
	}
}
