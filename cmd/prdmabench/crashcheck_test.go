package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"prdma/internal/crashcheck"
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
