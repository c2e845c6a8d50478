package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// Property: a Resource services requests FIFO with no overlap and no gaps
// while backlogged — completion times are non-decreasing and each request's
// service time is fully accounted.
func TestResourceFIFOProperty(t *testing.T) {
	f := func(arrivalGaps []uint8, services []uint8) bool {
		if len(arrivalGaps) == 0 || len(services) == 0 {
			return true
		}
		k := New()
		r := NewResource(k)
		var completions []Time
		var totalService time.Duration
		at := Time(0)
		n := len(arrivalGaps)
		if len(services) < n {
			n = len(services)
		}
		for i := 0; i < n; i++ {
			at = at.Add(time.Duration(arrivalGaps[i]) * time.Microsecond)
			svc := time.Duration(services[i]%50+1) * time.Microsecond
			totalService += svc
			completions = append(completions, r.ReserveAt(at, svc))
		}
		prev := Time(-1)
		for _, c := range completions {
			if c < prev {
				return false // FIFO violated
			}
			prev = c
		}
		// The last completion is at least the total service time (no
		// overlap), and the next request queues behind it.
		last := completions[len(completions)-1]
		return last >= Time(totalService) && r.NextFree() == last
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: proc wakeups honor virtual time — a proc sleeping d always
// resumes exactly d later, regardless of how many other procs run.
func TestProcSleepExactProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 || len(delays) > 64 {
			return true
		}
		k := New()
		ok := true
		for _, d := range delays {
			d := time.Duration(d) * time.Nanosecond
			k.Go("p", func(p *Proc) {
				start := p.Now()
				p.Sleep(d)
				if p.Now().Sub(start) != d {
					ok = false
				}
			})
		}
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Chan preserves FIFO under arbitrary producer/consumer timing.
func TestChanFIFOProperty(t *testing.T) {
	f := func(gaps []uint8) bool {
		if len(gaps) == 0 || len(gaps) > 100 {
			return true
		}
		k := New()
		c := NewChan[int](k)
		var got []int
		k.Go("consumer", func(p *Proc) {
			for i := 0; i < len(gaps); i++ {
				got = append(got, c.Pop(p))
			}
		})
		k.Go("producer", func(p *Proc) {
			for i, g := range gaps {
				p.Sleep(time.Duration(g) * time.Nanosecond)
				c.Push(i)
			}
		})
		k.Run()
		if len(got) != len(gaps) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
