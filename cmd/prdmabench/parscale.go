package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"prdma/internal/bench"
)

// parscaleReport is the -json document (CI's BENCH_PR9.json): the
// parallel-kernel scaling ladder plus the open-loop population smoke, with
// the determinism verdict the CI diff job gates on.
type parscaleReport struct {
	Scale         string             `json:"scale"`
	GoMaxProcs    int                `json:"gomaxprocs"`
	Scaling       *bench.ScaleResult `json:"scaling"`
	Smoke         *bench.SmokeResult `json:"smoke"`
	Deterministic bool               `json:"deterministic"`
	SpeedupAt4    float64            `json:"speedup_at_4_workers"`
}

// parscaleMain runs the worker ladder over the fixed 8-shard partitioned
// cluster, then the large-population open-loop smoke.
// Exit is nonzero if any rung's fingerprint diverges or a smoke invariant
// fails — wall-clock speedup is reported, never asserted, because it is a
// property of the machine (GOMAXPROCS), not of the simulation.
func parscaleMain(o bench.Options, scale string, simpar, logclients int, jsonOut string, csv bool) {
	emit := func(t bench.Table) {
		if csv {
			fmt.Printf("# %s\n", t.Title)
			if err := t.CSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println()
		} else {
			t.Fprint(os.Stdout)
		}
	}

	sr, err := o.ParallelScale([]int{1, 2, 4, 8})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	emit(sr.Table())

	smokeWorkers := simpar
	if smokeWorkers <= 0 {
		smokeWorkers = 4
	}
	sm, err := o.MillionClientSmoke(smokeWorkers, logclients)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	emit(sm.Table())

	rep := parscaleReport{
		Scale:         scale,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Scaling:       sr,
		Smoke:         sm,
		Deterministic: sr.Deterministic,
	}
	for _, p := range sr.Points {
		if p.Workers == 4 {
			rep.SpeedupAt4 = p.Speedup
		}
	}
	if jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if !sr.Deterministic {
		fmt.Fprintln(os.Stderr, "parscale: FINGERPRINT DIVERGENCE across worker counts")
		os.Exit(1)
	}
	if !sm.OK {
		fmt.Fprintln(os.Stderr, "parscale: smoke invariants failed")
		os.Exit(1)
	}
}
