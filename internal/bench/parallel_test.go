package bench

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"prdma/internal/sim"
)

// render flattens tables to the exact bytes prdmabench would print.
func render(tables []Table) string {
	var sb strings.Builder
	for i := range tables {
		tables[i].Fprint(&sb)
	}
	return sb.String()
}

// TestParallelDeterminismFig8 runs the Fig. 8 driver sequentially and on the
// parallel runner with the same seed: the rendered tables must be
// byte-identical, because every cell builds its own kernel and derives all
// randomness from the cell parameters.
func TestParallelDeterminismFig8(t *testing.T) {
	o := tiny()
	o.Ops = 200
	seq, par := o, o
	seq.Parallel = 1
	par.Parallel = -1 // one worker per CPU
	got, want := render(par.Fig8()), render(seq.Fig8())
	if got != want {
		t.Errorf("parallel Fig8 diverged from sequential run:\n--- sequential ---\n%s--- parallel ---\n%s", want, got)
	}
}

// TestParallelDeterminismFig11 is the macro-benchmark counterpart: YCSB
// workloads A-F across all RPC kinds.
func TestParallelDeterminismFig11(t *testing.T) {
	o := tiny()
	o.Ops = 200
	seq, par := o, o
	seq.Parallel = 1
	par.Parallel = -1
	got, want := render([]Table{par.Fig11()}), render([]Table{seq.Fig11()})
	if got != want {
		t.Errorf("parallel Fig11 diverged from sequential run:\n--- sequential ---\n%s--- parallel ---\n%s", want, got)
	}
}

// TestRunnerOrdering: results land in submission slots regardless of
// completion order, for pools smaller, equal to, and larger than the job
// count.
func TestRunnerOrdering(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 8, 64} {
		r := NewRunner(workers)
		n := 37
		out := mapCells(r, n, func(i int) string { return fmt.Sprintf("cell-%d", i) })
		if len(out) != n {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(out), n)
		}
		for i, v := range out {
			if v != fmt.Sprintf("cell-%d", i) {
				t.Fatalf("workers=%d: slot %d holds %q", workers, i, v)
			}
		}
	}
}

// explodeCell panics from a named frame, which the re-raised panic's stack
// must show.
func explodeCell(i int) { panic(fmt.Sprintf("cell %d exploded", i)) }

// TestRunnerPanicPropagates: a cell panic must drain the pool and re-raise
// on the caller with the cell's value and stack, preserving the drivers'
// panic-on-model-bug contract.
func TestRunnerPanicPropagates(t *testing.T) {
	r := NewRunner(4)
	var ran atomic.Int32
	defer func() {
		p, ok := recover().(*sim.Panic)
		if !ok {
			t.Fatal("cell panic was swallowed or re-raised without its stack")
		}
		if s, ok := p.Value.(string); !ok || s != "cell 5 exploded" {
			t.Errorf("unexpected panic payload: %v", p.Value)
		}
		if !strings.Contains(string(p.Stack), "bench.explodeCell(") {
			t.Errorf("the re-raised panic's stack does not name the panicking function:\n%s", p.Stack)
		}
		if got := ran.Load(); got != 16 {
			t.Errorf("pool did not drain: %d/16 cells ran", got)
		}
	}()
	r.Do(16, func(i int) {
		ran.Add(1)
		if i == 5 {
			explodeCell(i)
		}
	})
}
