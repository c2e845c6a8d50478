package sim

import (
	"testing"
	"time"
)

func TestChanFIFO(t *testing.T) {
	k := New()
	c := NewChan[int](k)
	var got []int
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, c.Pop(p))
		}
	})
	k.Go("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(time.Millisecond)
			c.Push(i)
		}
	})
	k.Run()
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestChanTryPop(t *testing.T) {
	k := New()
	c := NewChan[string](k)
	if _, ok := c.TryPop(); ok {
		t.Fatal("TryPop on empty returned ok")
	}
	c.Push("x")
	v, ok := c.TryPop()
	if !ok || v != "x" {
		t.Fatalf("TryPop = %q, %v", v, ok)
	}
	if c.Len() != 0 {
		t.Fatal("Len after TryPop != 0")
	}
}

func TestChanDrain(t *testing.T) {
	k := New()
	c := NewChan[int](k)
	c.Push(1)
	c.Push(2)
	out := c.Drain()
	if len(out) != 2 || out[0] != 1 || out[1] != 2 {
		t.Fatalf("Drain = %v", out)
	}
	if c.Len() != 0 {
		t.Fatal("chan not empty after Drain")
	}
}

func TestFuture(t *testing.T) {
	k := New()
	f := NewFuture[int](k)
	sum := 0
	for i := 0; i < 3; i++ {
		k.Go("w", func(p *Proc) { sum += f.Wait(p) })
	}
	k.After(time.Millisecond, func() { f.Complete(5) })
	k.Run()
	if sum != 15 {
		t.Fatalf("sum = %d, want 15", sum)
	}
	if !f.Done() || f.Value() != 5 {
		t.Fatal("future state wrong")
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	k := New()
	f := NewFuture[int](k)
	f.Complete(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Complete(2)
}

func TestFutureWaitAfterComplete(t *testing.T) {
	k := New()
	f := NewFuture[string](k)
	f.Complete("done")
	var got string
	k.Go("late", func(p *Proc) { got = f.Wait(p) })
	k.Run()
	if got != "done" {
		t.Fatalf("got %q", got)
	}
}

func TestWaitGroup(t *testing.T) {
	k := New()
	wg := NewWaitGroup(k)
	wg.Add(3)
	doneAt := Time(0)
	k.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Millisecond
		k.After(d, func() { wg.Done() })
	}
	k.Run()
	if doneAt != Time(3*time.Millisecond) {
		t.Fatalf("waiter resumed at %v, want 3ms", doneAt)
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	k := New()
	wg := NewWaitGroup(k)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	wg.Done()
}

func TestFutureThen(t *testing.T) {
	k := New()
	f := NewFuture[int](k)
	got := 0
	f.Then(func(v int) { got += v })
	f.Complete(5)
	if got != 5 {
		t.Fatalf("then not run: %d", got)
	}
	// Then after completion runs immediately.
	f.Then(func(v int) { got += v })
	if got != 10 {
		t.Fatalf("late then not run: %d", got)
	}
}

func TestFutureWaitTimeout(t *testing.T) {
	k := New()
	f := NewFuture[int](k)
	var ok1, ok2 bool
	var v2 int
	k.Go("w", func(p *Proc) {
		_, ok1 = f.WaitTimeout(p, time.Millisecond)
		v2, ok2 = f.WaitTimeout(p, 10*time.Millisecond)
	})
	k.After(3*time.Millisecond, func() { f.Complete(9) })
	k.Run()
	if ok1 {
		t.Fatal("first wait should time out")
	}
	if !ok2 || v2 != 9 {
		t.Fatalf("second wait: ok=%v v=%d", ok2, v2)
	}
}
