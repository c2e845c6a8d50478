package main

import (
	"errors"
	"flag"
	"io"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"prdma/internal/cluster"
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
	// -shards and -replicas override the sweep's CI-sized default shape
	// only when given.
	def := crashcheck.DefaultClusterConfig(1)
	for args, want := range map[string][2]int{
		"-crashcheck -cluster":                          {def.Shards, def.Replicas},
		"-crashcheck -cluster -shards 4":                {4, def.Replicas},
		"-crashcheck -cluster -shards 3 -replicas 5":    {3, 5},
		"-crashcheck -cluster -faults none -replicas 2": {def.Shards, 2},
	} {
		cfg := parseTargets(t, strings.Fields(args))[0].(crashcheck.ClusterConfig)
		if got := [2]int{cfg.Shards, cfg.Replicas}; got != want {
			t.Errorf("%q sweeps %d shards x %d replicas, want %d x %d", args, got[0], got[1], want[0], want[1])
		}
	}
	if def.Shards != 2 {
		t.Errorf("the default cluster sweep has %d shards, want the CI-sized 2", def.Shards)
	}
	if n := len(parseTargets(t, strings.Fields("-crashcheck -cluster -faults all"))); n != len(cluster.FaultNames()) {
		t.Errorf("-faults all selects %d cells, want %d", n, len(cluster.FaultNames()))
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

// TestBadShapesExit2 runs the built command on shapes its drivers cannot
// build, on negative counts, and on sweep flags the selected crash-sweep
// target does not read: each must exit 2 with a message naming the
// problem, not panic or run.
func TestBadShapesExit2(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	bin := filepath.Join(t.TempDir(), "prdmabench")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for args, msg := range map[string]string{
		"-cluster -scale quick -shards 0":                             "-shards and -replicas must be positive",
		"-cluster -scale quick -replicas 0":                           "-shards and -replicas must be positive",
		"-crashcheck -cluster -shards 0":                              "-shards and -replicas must be positive",
		"-crashcheck -family WFlush -mix writes -objsize 8 -points 2": "needs ObjSize ≥ 16",
		"-crashcheck -shards 2":                                       "the durable-RPC sweep does not read -shards",
		"-crashcheck -replicas 2":                                     "the durable-RPC sweep does not read -replicas",
		"-crashcheck -simpar 2":                                       "the durable-RPC sweep does not read -simpar",
		"-crashcheck -faults partition":                               "-faults selects cluster sweep cells: it needs -crashcheck -cluster",
		"-crashcheck -workloads A":                                    "-workloads selects cluster sweep cells: it needs -crashcheck -cluster",
		"-crashcheck -cluster -family WFlush":                         "the cluster sweep does not read -family",
		"-crashcheck -cluster -mix batch":                             "the cluster sweep does not read -mix",
		"-crashcheck -cluster -torn 4":                                "the cluster sweep does not read -torn",
		"-crashcheck -pmpool -mix batch":                              "the pmpool sweep does not read -mix",
		"-crashcheck -pmpool -objsize 8":                              "the pmpool sweep does not read -objsize",
		"-crashcheck -pmpool -shards 2":                               "the pmpool sweep does not read -shards",
		"-crashcheck -pmpool -replicas 2":                             "the pmpool sweep does not read -replicas",
		"-crashcheck -pmpool -simpar 2":                               "the pmpool sweep does not read -simpar",
		"-crashcheck -pmpool -faults partition":                       "-faults selects cluster sweep cells: it needs -crashcheck -cluster",
		"-crashcheck -pmpool -workloads A":                            "-workloads selects cluster sweep cells: it needs -crashcheck -cluster",
		"-crashcheck -family WFlush -mix writes -points -3":           "negative crash-point count",
		"-crashcheck -cluster -points -3":                             "negative crash-point count",
		"-crashcheck -pmpool -points -5 -torn -2":                     "negative crash-point count",
		"-crashcheck -pmpool -torn -2":                                "negative crash-point count",
		"-crashcheck -cluster -simpar -2":                             "-simpar must not be negative",
		"-cluster -scale quick -simpar -1":                            "-simpar must not be negative",
	} {
		out, err := exec.Command(bin, strings.Fields(args)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), msg) || strings.Contains(string(out), "panic") {
			t.Errorf("%q: %v, output:\n%s\nwant exit status 2 and %q", args, err, out, msg)
		}
	}
}
