package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"prdma/internal/fabric"
)

func TestLoadAndDefaults(t *testing.T) {
	s, err := Load(strings.NewReader(`{"rpc":"FaRM"}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Ops == 0 || s.Objects == 0 || s.ObjectSize == 0 || s.Clients == 0 {
		t.Fatalf("defaults not applied: %+v", s)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"rpc":"FaRM","bogus":1}`)); err == nil {
		t.Fatal("expected error for unknown field")
	}
}

func TestRunBasicScenario(t *testing.T) {
	s := &Spec{RPC: "WFlush-RPC", Ops: 500, Objects: 256, ObjectSize: 1024, ReadFraction: 0.5}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 500 || rep.KOPS <= 0 || rep.AvgUS <= 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.P99US < rep.P50US {
		t.Fatal("p99 < p50")
	}
	if rep.Counters["serverPersistOps"] == 0 {
		t.Fatal("no persists counted")
	}
	if rep.Counters["handled"] == 0 {
		t.Fatal("no handled ops counted")
	}
}

func TestRunUnknownRPC(t *testing.T) {
	s := &Spec{RPC: "NotARealRPC"}
	if _, err := s.Run(); err == nil {
		t.Fatal("expected unknown-rpc error")
	}
}

// TestFaSSTOversizeObjectErrors runs FaSST with objects whose request
// frame exceeds the UD MTU: the run must stop with the first client's
// error, not panic.
func TestFaSSTOversizeObjectErrors(t *testing.T) {
	for _, size := range []int{4 << 10, 64 << 10} {
		s := &Spec{RPC: "FaSST", Ops: 20, Objects: 16, ObjectSize: size, Clients: 2}
		rep, err := s.Run()
		if err == nil || !strings.HasPrefix(err.Error(), "scenario: client-0: ") || !strings.Contains(err.Error(), "UD MTU") {
			t.Errorf("%d-byte objects: report %+v, error %v, want client-0's UD MTU error", size, rep, err)
		}
	}
}

func TestRunMultiClient(t *testing.T) {
	s := &Spec{RPC: "FaRM", Ops: 600, Objects: 128, ObjectSize: 512, Clients: 3}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 600 {
		t.Fatalf("ops = %d", rep.Ops)
	}
}

func TestRunBusyKnobsSlowdown(t *testing.T) {
	base := &Spec{RPC: "FaRM", Ops: 400, Objects: 128, ObjectSize: 1024, Seed: 3}
	r1, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	busy := *base
	busy.BusyNetwork = true
	busy.BusyReceiver = true
	r2, err := busy.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r2.AvgUS <= r1.AvgUS {
		t.Fatalf("busy run (%v us) not slower than idle (%v us)", r2.AvgUS, r1.AvgUS)
	}
}

func TestRunCrashScenario(t *testing.T) {
	s := &Spec{
		RPC: "WFlush-RPC", Ops: 400, Objects: 128, ObjectSize: 1024,
		ProcessingUS: 5,
		Crashes:      &CrashSpec{Count: 2, RestartMS: 2, RetransferMS: 1, Pipeline: 4},
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes != 2 {
		t.Fatalf("crashes = %d", rep.Crashes)
	}
	if rep.Replayed == 0 {
		t.Fatal("nothing replayed from the log")
	}
}

func TestCrashScenarioRejectsNonRecoverable(t *testing.T) {
	s := &Spec{RPC: "DaRPC", Crashes: &CrashSpec{Count: 1}}
	if _, err := s.Run(); err == nil {
		t.Fatal("expected error: DaRPC has no recovery protocol")
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := func() *Report {
		s := &Spec{RPC: "W-RFlush-RPC", Ops: 300, Objects: 64, ObjectSize: 256, Seed: 9}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := mk(), mk()
	if a.Elapsed != b.Elapsed || a.AvgUS != b.AvgUS {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestRunWithTrace(t *testing.T) {
	s := &Spec{RPC: "WFlush-RPC", Ops: 50, Objects: 32, ObjectSize: 512, ReadFraction: 0.0, Trace: true, TraceEvents: 100, NativeFlush: true}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trace) == 0 {
		t.Fatal("no trace events recorded")
	}
	found := false
	for _, line := range rep.Trace {
		if strings.Contains(line, "flush-ack") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no flush-ack events in trace (got %d events, first: %s)", len(rep.Trace), rep.Trace[0])
	}
}

func TestLoadRejectsMalformedJSON(t *testing.T) {
	for _, doc := range []string{`{"rpc":`, `[]`, `{"ops":"many"}`} {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("malformed document %q accepted", doc)
		}
	}
}

func TestCrashesAndClusterConflict(t *testing.T) {
	s := &Spec{
		RPC:     "WFlush-RPC",
		Crashes: &CrashSpec{Count: 1},
		Cluster: &ClusterSpec{Shards: 2, Replicas: 3},
	}
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("want mutually-exclusive error, got %v", err)
	}
}

func TestClusterFaultErrors(t *testing.T) {
	base := func() *Spec {
		return &Spec{RPC: "WFlush-RPC", Ops: 100, Objects: 64, ObjectSize: 64, Cluster: &ClusterSpec{}}
	}
	cases := []struct {
		name string
		mod  func(*Spec)
	}{
		{"unknown fault name", func(s *Spec) { s.Cluster.FaultName = "nope" }},
		{"name and inline fault", func(s *Spec) {
			s.Cluster.FaultName = "gray"
			s.Cluster.Fault = &fabric.FaultSpec{DupProb: 0.1, DupDelayUS: 5}
		}},
		{"invalid inline fault", func(s *Spec) { s.Cluster.Fault = &fabric.FaultSpec{DupProb: 2} }},
		{"unknown workload", func(s *Spec) { s.Cluster.Workload = "G" }},
		{"multi-letter workload", func(s *Spec) { s.Cluster.Workload = "AB" }},
		{"workload with open loop", func(s *Spec) {
			s.Cluster.Workload = "A"
			s.Cluster.OpenLoop = true
			s.Cluster.RatePerSec = 1e5
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := base()
			c.mod(s)
			if _, err := s.Run(); err == nil {
				t.Fatal("expected an error")
			}
		})
	}
}

func TestClusterFaultScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster runs are slow")
	}
	s := &Spec{
		RPC: "WFlush-RPC", Ops: 600, Objects: 256, ObjectSize: 64,
		Clients: 6, Seed: 7,
		Cluster: &ClusterSpec{Shards: 2, Replicas: 3, Workload: "A", FaultName: "partition"},
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters["faultDrops"] == 0 {
		t.Error("partition adversary dropped nothing")
	}
	if rep.Counters["retransmits"] == 0 {
		t.Error("no retransmissions rode out the cut")
	}
	if rep.Counters["puts"] == 0 || rep.Counters["gets"] == 0 {
		t.Errorf("workload A should mix puts and gets: %v", rep.Counters)
	}
}

func TestRunHotpotScenario(t *testing.T) {
	s := &Spec{RPC: "Hotpot", Ops: 200, Objects: 64, ObjectSize: 512, ReadFraction: 0.5}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 200 {
		t.Fatalf("ops = %d", rep.Ops)
	}
}

func TestRunPMPoolScenario(t *testing.T) {
	s := &Spec{
		Name: "pmpool", RPC: "WFlush-RPC", Seed: 7,
		PMPool: &PMPoolSpec{Servers: 2, Clients: 2, Iterations: 2, GraphScale: 16},
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 || rep.Counters["shuffleBlocks"] == 0 {
		t.Fatalf("shuffle moved no blocks: %+v", rep)
	}
	if rep.Counters["blocksLeaked"] != 0 {
		t.Fatalf("leaked %d blocks", rep.Counters["blocksLeaked"])
	}
}

func TestPMPoolScenarioExclusions(t *testing.T) {
	base := func() *Spec {
		return &Spec{RPC: "WFlush-RPC", PMPool: &PMPoolSpec{Iterations: 1, GraphScale: 16}}
	}
	s := base()
	s.Cluster = &ClusterSpec{Shards: 2, Replicas: 2}
	if _, err := s.Run(); err == nil {
		t.Error("pmpool+cluster should be rejected")
	}
	s = base()
	s.Crashes = &CrashSpec{Count: 1}
	if _, err := s.Run(); err == nil {
		t.Error("pmpool+crashes should be rejected")
	}
	s = base()
	s.RPC = "FaRM"
	if _, err := s.Run(); err == nil {
		t.Error("pmpool over a non-durable family should be rejected")
	}
}

// TestMalformedNumbersRejected: each spec below used to panic inside the
// run (a negative ops count sizing a slice, a negative crash count or fewer
// ops than crash windows dividing by zero, a negative graph scale sizing
// the graph) or to report a run that did not happen (negative or too few
// clients, negative objects). Load and Run must both reject it with an
// error naming the field.
func TestMalformedNumbersRejected(t *testing.T) {
	for _, tc := range []struct{ spec, field string }{
		{`{"ops": -5}`, "ops"},
		{`{"ops": 100, "crashes": {"count": -1}}`, "crashes.count"},
		{`{"rpc": "WFlush-RPC", "ops": 3, "objects": 4, "objectSize": 64, "crashes": {}}`, "crashes.count"},
		{`{"rpc": "WFlush-RPC", "pmpool": {"graphScale": -1}}`, "pmpool.graphScale"},
		{`{"ops": 100, "clients": -2}`, "clients"},
		{`{"ops": 3, "clients": 5}`, "clients"},
		{`{"ops": 100, "objects": -3}`, "objects"},
		{`{"ops": 100, "readFraction": 1.5}`, "readFraction"},
		{`{"ops": 100, "cluster": {"shards": -1}}`, "cluster.shards"},
	} {
		if _, err := Load(strings.NewReader(tc.spec)); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("Load(%s): error %v, want one naming %s", tc.spec, err, tc.field)
		}
		var s Spec
		if err := json.Unmarshal([]byte(tc.spec), &s); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("Run(%s): error %v, want one naming %s", tc.spec, err, tc.field)
		}
	}
	s, err := Load(strings.NewReader(`{"ops": 5, "clients": 5, "objects": 64, "objectSize": 64, "readFraction": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil || rep.Ops != 5 || rep.KOPS <= 0 {
		t.Fatalf("valid edge spec: report %+v, error %v", rep, err)
	}
}
