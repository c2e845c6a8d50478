// The adversarial fault-injection matrix: every cell pairs one named
// fabric adversary (partitions with heal schedules, gray failures,
// duplicated and reordered delivery, drop bursts) with one YCSB core
// workload (A–F) and runs the cluster crash-point sweep under it — the
// §4.2 durability invariants are asserted at every cell, with a minimal
// (seed, cell) reproduction reported on failure. The whole matrix is a
// pure function of the seed: fixed seed ⇒ byte-identical figure.
package scenario

import (
	"fmt"
	"strings"

	"prdma/internal/crashcheck"
	"prdma/internal/fabric"
	"prdma/internal/ycsb"
)

// builtinFaults returns the named adversary library. Endpoint prefixes
// assume the matrix deployment (a "gateway" client host and "s<shard>r<replica>"
// storage nodes, 2 shards × 3 replicas by default); windows assume the
// default load's ~0.6–2 ms span. Every partition heals within the run, so
// retransmission — not operator surgery — must restore connectivity.
func builtinFaults() []fabric.FaultSpec {
	return []fabric.FaultSpec{
		{Name: "none"},
		{
			// Symmetric full cut of one replica: both directions to s0r1
			// black-hole for 300 µs, then heal. Quorum writes ride on the
			// remaining two replicas; the healed replica catches up from
			// RC retransmissions, and the store's version guard must fend
			// off the stale ones.
			Name: "partition",
			Partitions: []fabric.PartitionSpec{
				{To: "s0r1", Symmetric: true, StartUS: 120, EndUS: 420},
			},
		},
		{
			// Asymmetric cut: requests gateway→s0r2 vanish but ACKs still
			// flow — the half-open link failure mode.
			Name: "asym-partition",
			Partitions: []fabric.PartitionSpec{
				{From: "gateway", To: "s0r2", StartUS: 150, EndUS: 500},
			},
		},
		{
			// Gray failure: shard 0's primary stays up but serves slowly
			// (exponential extra latency, mean 15 µs, on 70% of its
			// traffic) for the whole run. No detector fires — the cluster
			// must absorb the slowness, visible only in the tail.
			Name: "gray",
			Gray: []fabric.GraySpec{
				{Endpoint: "s0r0", MeanUS: 15, Prob: 0.7},
			},
		},
		{
			// Bounded reordering: 15% of messages are held up to 20 µs
			// past the FIFO point, letting later traffic overtake.
			Name:         "reorder",
			ReorderProb:  0.15,
			ReorderMaxUS: 20,
		},
		{
			// Duplicated delivery: 20% of messages arrive twice, the copy
			// an exponential ~10 µs later. QP-level dedup must swallow
			// every copy without re-applying.
			Name:       "duplicate",
			DupProb:    0.2,
			DupDelayUS: 10,
		},
		{
			// Congestion/RNR bursts: every 200 µs, a 60 µs window drops
			// half of all deliveries fabric-wide.
			Name: "burst",
			Bursts: []fabric.BurstSpec{
				{StartUS: 60, PeriodUS: 200, LenUS: 60, DropProb: 0.5},
			},
		},
		{
			// Everything at once, each knob dialed down: a healing
			// partition under reordering, duplication, and periodic loss.
			Name: "chaos",
			Partitions: []fabric.PartitionSpec{
				{To: "s1r2", Symmetric: true, StartUS: 200, EndUS: 450},
			},
			ReorderProb:  0.1,
			ReorderMaxUS: 15,
			DupProb:      0.1,
			DupDelayUS:   8,
			Bursts: []fabric.BurstSpec{
				{StartUS: 100, PeriodUS: 300, LenUS: 80, DropProb: 0.35},
			},
		},
	}
}

// FaultNames lists the builtin adversary names in matrix order.
func FaultNames() []string {
	specs := builtinFaults()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// FaultByName resolves one builtin adversary.
func FaultByName(name string) (fabric.FaultSpec, error) {
	for _, s := range builtinFaults() {
		if s.Name == name {
			return s, nil
		}
	}
	return fabric.FaultSpec{}, fmt.Errorf("scenario: unknown fault %q (have %s)",
		name, strings.Join(FaultNames(), ", "))
}

// ParseWorkloads maps a string like "ABF" (or "A,B,F") to workloads.
func ParseWorkloads(s string) ([]ycsb.Workload, error) {
	var out []ycsb.Workload
	for _, r := range strings.ToUpper(s) {
		if r == ',' || r == ' ' {
			continue
		}
		if r < 'A' || r > 'F' {
			return nil, fmt.Errorf("scenario: unknown YCSB workload %q (A–F)", string(r))
		}
		out = append(out, ycsb.Workload(r))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scenario: no workloads in %q", s)
	}
	return out, nil
}

// MatrixSpec parameterizes the adversarial matrix: the cross product of
// Faults × Workloads, each cell one cluster crash-point sweep.
type MatrixSpec struct {
	Seed             int64
	Shards, Replicas int
	Ops, Clients     int
	ObjSize          int
	// Points is the crash points swept per cell; SecondCrashEvery arms a
	// second same-shard crash at every n-th point.
	Points           int
	SecondCrashEvery int
	Workloads        []ycsb.Workload
	Faults           []fabric.FaultSpec
	// Mutant seeds a known bug class into every cell ("ackbug" or
	// "resurrect"); the detection check asserts at least one cell fails.
	Mutant string
}

// DefaultMatrixSpec returns the full matrix at the CI-sized deployment:
// all builtin adversaries × YCSB A–F.
func DefaultMatrixSpec(seed int64) MatrixSpec {
	return MatrixSpec{
		Seed:             seed,
		Shards:           2,
		Replicas:         3,
		Ops:              240,
		Clients:          6,
		ObjSize:          64,
		Points:           12,
		SecondCrashEvery: 6,
		Workloads:        ycsb.Workloads,
		Faults:           builtinFaults(),
	}
}

// Validate rejects a malformed matrix before any cell runs.
func (m *MatrixSpec) Validate() error {
	if len(m.Faults) == 0 || len(m.Workloads) == 0 {
		return fmt.Errorf("scenario: matrix needs at least one fault and one workload")
	}
	for i := range m.Faults {
		if err := m.Faults[i].Validate(); err != nil {
			return err
		}
	}
	for _, w := range m.Workloads {
		if w < ycsb.A || w > ycsb.F {
			return fmt.Errorf("scenario: unknown YCSB workload %q", w)
		}
	}
	switch m.Mutant {
	case "", "ackbug", "resurrect":
	default:
		return fmt.Errorf("scenario: unknown mutant %q (ackbug, resurrect)", m.Mutant)
	}
	return nil
}

// Cell is one matrix coordinate.
type Cell struct {
	Fault    fabric.FaultSpec
	Workload ycsb.Workload
}

// Cells expands the cross product in deterministic order: faults outer,
// workloads inner.
func (m *MatrixSpec) Cells() []Cell {
	cells := make([]Cell, 0, len(m.Faults)*len(m.Workloads))
	for _, f := range m.Faults {
		for _, w := range m.Workloads {
			cells = append(cells, Cell{Fault: f, Workload: w})
		}
	}
	return cells
}

// CellResult is one figure row: the cell's crash-free performance under
// its adversary plus the sweep verdict.
type CellResult struct {
	Fault    string  `json:"fault"`
	Workload string  `json:"workload"`
	Ops      int     `json:"ops"`
	KOPS     float64 `json:"kops"`
	P50US    float64 `json:"p50US"`
	P99US    float64 `json:"p99US"`
	// Resends counts RC retransmissions in the reference run; FaultDrops,
	// Duplicated, Reordered the adversary's interference; StaleDrops the
	// version-guarded writes the stores rejected; Retries cluster-level
	// op retries.
	Resends    int64 `json:"resends"`
	FaultDrops int64 `json:"faultDrops"`
	Duplicated int64 `json:"duplicated"`
	Reordered  int64 `json:"reordered"`
	StaleDrops int64 `json:"staleDrops"`
	Retries    int64 `json:"retries"`
	// Points is the crash points swept; Failovers/Resyncs/Replayed/
	// Shipped total the controller work across them.
	Points    int   `json:"points"`
	Failovers int64 `json:"failovers"`
	Resyncs   int64 `json:"resyncs"`
	Replayed  int64 `json:"replayed"`
	Shipped   int64 `json:"shipped"`
	// Violations counts broken invariants; First is the earliest-crash
	// violation and Repro the minimal reproduction command line.
	Violations int    `json:"violations"`
	First      string `json:"first,omitempty"`
	Repro      string `json:"repro,omitempty"`
}

// Verdict renders the cell's pass/fail column.
func (r *CellResult) Verdict() string {
	if r.Violations == 0 {
		return "OK"
	}
	return fmt.Sprintf("FAIL(%d)", r.Violations)
}

// RunCell executes one cell: a full cluster crash-point sweep under the
// cell's adversary and workload.
func (m *MatrixSpec) RunCell(cell Cell) CellResult {
	cfg := crashcheck.ClusterConfig{
		Seed:             m.Seed,
		Points:           m.Points,
		SecondCrashEvery: m.SecondCrashEvery,
		Ops:              m.Ops,
		Clients:          m.Clients,
		Shards:           m.Shards,
		Replicas:         m.Replicas,
		ObjSize:          m.ObjSize,
		Workload:         cell.Workload,
		Mutant:           m.Mutant,
	}
	if !cell.Fault.Empty() {
		f := cell.Fault
		cfg.Fault = &f
	}
	sw, err := crashcheck.Sweep(cfg)
	if err != nil {
		return CellResult{Fault: cell.Fault.Name, Workload: cell.Workload.String(), Violations: 1, First: err.Error()}
	}
	out := CellResult{
		Fault:      cell.Fault.Name,
		Workload:   cell.Workload.String(),
		Ops:        sw.Ref.Ops,
		KOPS:       sw.Ref.KOPS,
		P50US:      sw.Ref.P50US,
		P99US:      sw.Ref.P99US,
		Resends:    sw.Ref.Resends,
		FaultDrops: sw.Ref.FaultDrops,
		Duplicated: sw.Ref.Duplicated,
		Reordered:  sw.Ref.Reordered,
		StaleDrops: sw.Ref.StaleDrops,
		Retries:    sw.Ref.Retries,
		Points:     sw.Points,
		Failovers:  sw.Failovers,
		Resyncs:    sw.Resyncs,
		Replayed:   sw.Replayed,
		Shipped:    sw.Shipped,
		Violations: sw.ViolationCount,
	}
	if v := sw.Minimal(); v != nil {
		out.First = v.String()
		out.Repro = m.repro(cell)
	}
	return out
}

// repro renders the minimal (seed, cell) reproduction command line.
func (m *MatrixSpec) repro(cell Cell) string {
	s := fmt.Sprintf("prdmabench -matrix -faults %s -workloads %s -seed %d -points %d -shards %d -replicas %d",
		cell.Fault.Name, cell.Workload, m.Seed, m.Points, m.Shards, m.Replicas)
	if m.Mutant != "" {
		s += " -mutant " + m.Mutant
	}
	return s
}

// Run sweeps every cell sequentially (the CLI fans cells out itself when
// parallelism is wanted) and returns the rows in Cells() order.
func (m *MatrixSpec) Run() ([]CellResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cells := m.Cells()
	out := make([]CellResult, len(cells))
	for i, c := range cells {
		out[i] = m.RunCell(c)
	}
	return out, nil
}
