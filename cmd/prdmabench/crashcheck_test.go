package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"prdma/internal/crashcheck"
	"prdma/internal/scenario"
)

// parseTargets parses args through the CLI's sweep flags and returns the
// targets they select.
func parseTargets(t *testing.T, args []string) []crashcheck.Target {
	t.Helper()
	fs := flag.NewFlagSet("prdmabench", flag.ContinueOnError)
	f := newSweepFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	ts, err := f.targets()
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestCrashcheckRepro renders each target's repro line from its swept
// config and parses it back through the CLI's flags: it must select exactly
// that config, non-default flags included. A target's flags with a mutant
// only another target has must fail the run instead of sweeping clean.
func TestCrashcheckRepro(t *testing.T) {
	for _, tc := range []struct {
		args    string
		foreign string
	}{
		{"-crashcheck -family S-RFlush -mix batch -seed 9 -points 12 -torn 3 -objsize 512 -mutant ackbug", "leak"},
		{"-crashcheck -cluster -simpar 2 -seed 6 -points 16 -shards 2 -replicas 5 -objsize 1024 -mutant resurrect", "leak"},
		{"-crashcheck -cluster -simpar 0 -seed 7 -points 12 -shards 2 -replicas 3 -objsize 64 -faults partition -workloads A -mutant ackbug", "leak"},
		{"-crashcheck -pmpool -family SFlush -seed 4 -points 7 -torn 2 -mutant leak", "ackbug"},
	} {
		ts := parseTargets(t, strings.Fields(tc.args))
		if len(ts) != 1 {
			t.Fatalf("%q selected %d targets, want 1", tc.args, len(ts))
		}
		line := repro(ts[0])
		if back := parseTargets(t, strings.Fields(line)); !reflect.DeepEqual(back, ts) {
			t.Errorf("repro %q of %q selects %+v, want %+v", line, tc.args, back, ts)
		}

		args := strings.Fields(tc.args)
		args[len(args)-1] = tc.foreign
		if _, err := runCrashcheck(io.Discard, parseTargets(t, args), 1); err == nil {
			t.Errorf("%q: mutant %q not rejected", tc.args, tc.foreign)
		}
	}
}

// TestClusterCells pins how -faults and -workloads expand a cluster sweep:
// one target per cell, faults outer and workloads inner, the "none" cell
// unfaulted, and each cell's summary line named after it; without them the
// sweep is one plain target.
func TestClusterCells(t *testing.T) {
	ts := parseTargets(t, strings.Fields("-crashcheck -cluster -shards 2 -points 1 -faults none,partition -workloads AB"))
	if ts[0].(crashcheck.ClusterConfig).Fault != nil {
		t.Error("the none cell runs faulted")
	}
	var out strings.Builder
	if _, err := runCrashcheck(&out, ts, 1); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "cluster") {
			got = append(got, strings.Fields(line)[0])
		}
	}
	want := []string{"cluster/none/A", "cluster/none/B", "cluster/partition/A", "cluster/partition/B"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cells %v, want %v", got, want)
	}
	if ts := parseTargets(t, []string{"-crashcheck", "-cluster"}); len(ts) != 1 || ts[0].(crashcheck.ClusterConfig).Fault != nil {
		t.Errorf("plain cluster sweep selects %+v", ts)
	}
	if n := len(parseTargets(t, strings.Fields("-crashcheck -cluster -faults all"))); n != len(scenario.FaultNames()) {
		t.Errorf("-faults all selects %d cells, want %d", n, len(scenario.FaultNames()))
	}
	for _, args := range []string{"-crashcheck -faults partition", "-cluster -workloads A", "-fig 8 -json x.json"} {
		set := map[string]bool{}
		for _, a := range strings.Fields(args) {
			if strings.HasPrefix(a, "-") {
				set[a[1:]] = true
			}
		}
		if validateModes(set) == nil {
			t.Errorf("%q accepted", args)
		}
	}
}
