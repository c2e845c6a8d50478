package bench

import (
	"runtime"
	"runtime/debug"
	"sync"

	"prdma/internal/sim"
)

// Runner fans independent experiment cells across a bounded worker pool.
// Every cell of every figure driver builds its own sim.Kernel, network, and
// RNG streams from the deployment seed, so cells share no mutable state and
// their results depend only on their parameters — never on execution order.
// That makes the experiment matrix embarrassingly parallel: the runner
// executes cells concurrently but collects results into their insertion
// slots, so the emitted tables are byte-identical to a sequential run.
type Runner struct {
	workers int
}

// NewRunner returns a runner executing up to workers cells concurrently:
// 0 or 1 is strictly sequential, in submission order (the reference for
// determinism tests), and negative means one worker per available CPU.
func NewRunner(workers int) *Runner {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	return &Runner{workers: workers}
}

// runner materializes the Options' parallelism setting (see NewRunner).
func (o Options) runner() *Runner { return NewRunner(o.Parallel) }

// Do runs fn(i) for every i in [0, n), spread across the pool. It returns
// only when all cells finished. A panic in any cell is re-raised on the
// caller after the pool drains, as a *sim.Panic that carries the cell's
// stack, preserving the sequential drivers' panic-on-model-bug contract.
func (r *Runner) Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if r == nil || r.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	workers := r.workers
	if workers > n {
		workers = n
	}
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				func() {
					defer func() {
						if p := recover(); p != nil {
							if _, ok := p.(*sim.Panic); !ok {
								p = &sim.Panic{Value: p, Stack: debug.Stack()}
							}
							panicOnce.Do(func() { panicked = p })
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// mapCells runs fn(i) for each i in [0, n) on the runner and returns the
// results in index order regardless of completion order. It is the shape
// every figure driver reduces to: enumerate the cell matrix, measure each
// cell in isolation, then format rows from the ordered slots.
func mapCells[T any](r *Runner, n int, fn func(i int) T) []T {
	out := make([]T, n)
	r.Do(n, func(i int) { out[i] = fn(i) })
	return out
}
