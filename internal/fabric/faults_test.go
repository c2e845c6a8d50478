package fabric

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"prdma/internal/sim"
)

// arrival records one observed delivery: which message, when.
type arrival struct {
	ID int
	At sim.Time
}

// runAdversary pushes n zero-size messages from a→b at a fixed interval
// under the given adversary and returns the observed delivery schedule, the
// time each message's release hook fired, and the network for counter
// inspection. Zero-size messages serialize for free, so a message sent at t
// reaches the injector's judgment at exactly t. Whatever the adversary does
// to a message, its release hook must fire exactly once.
func runAdversary(t *testing.T, spec FaultSpec, seed uint64, n int, every time.Duration) ([]arrival, map[int]sim.Time, *Network) {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	k := sim.New()
	net := New(k, DefaultParams(), 1)
	net.SetInjector(NewInjector(spec, seed))
	var got []arrival
	net.AttachOn(k, "b", func(at sim.Time, m *Message) {
		got = append(got, arrival{ID: m.Payload.(int), At: at})
	})
	a := net.AttachOn(k, "a", nil)
	released := make(map[int]sim.Time, n)
	for i := 0; i < n; i++ {
		i := i
		release := func() {
			if _, twice := released[i]; twice {
				t.Fatalf("message %d: release hook fired twice", i)
			}
			released[i] = k.Now()
		}
		k.Schedule(sim.Time(int64(i)*int64(every)), func() {
			a.SendPooled("b", 0, i, release)
		})
	}
	k.Run()
	if len(released) != n {
		t.Fatalf("release hook fired for %d of %d messages", len(released), n)
	}
	return got, released, net
}

// TestInjectorDeterministicSchedule runs each adversary mechanism twice at
// the same seed and expects the byte-identical delivery schedule the matrix
// figure depends on — and a different schedule at a different seed, so the
// randomness actually flows from the seed rather than being vestigial.
func TestInjectorDeterministicSchedule(t *testing.T) {
	cases := []struct {
		name   string
		spec   FaultSpec
		seeded bool // schedule should change with the seed
	}{
		{"partition", FaultSpec{Partitions: []PartitionSpec{{To: "b", StartUS: 50, EndUS: 120}}}, false},
		{"gray", FaultSpec{Gray: []GraySpec{{Endpoint: "b", MeanUS: 5, Prob: 0.5}}}, true},
		{"reorder", FaultSpec{ReorderProb: 0.5, ReorderMaxUS: 15}, true},
		{"duplicate", FaultSpec{DupProb: 0.5, DupDelayUS: 8}, true},
		{"burst", FaultSpec{Bursts: []BurstSpec{{PeriodUS: 40, LenUS: 20, DropProb: 0.5}}}, true},
		{"combined", FaultSpec{
			Partitions:  []PartitionSpec{{To: "b", StartUS: 30, EndUS: 90, Symmetric: true}},
			Gray:        []GraySpec{{Endpoint: "b", MeanUS: 3, Prob: 0.3}},
			ReorderProb: 0.2, ReorderMaxUS: 10,
			DupProb: 0.2, DupDelayUS: 6,
			Bursts: []BurstSpec{{StartUS: 100, PeriodUS: 60, LenUS: 30, DropProb: 0.4}},
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a1, _, _ := runAdversary(t, c.spec, 9, 200, time.Microsecond)
			a2, _, _ := runAdversary(t, c.spec, 9, 200, time.Microsecond)
			if !reflect.DeepEqual(a1, a2) {
				t.Fatal("same (spec, seed, traffic) produced different delivery schedules")
			}
			if c.seeded {
				a3, _, _ := runAdversary(t, c.spec, 10, 200, time.Microsecond)
				if reflect.DeepEqual(a1, a3) {
					t.Fatal("different seed produced an identical schedule — seed is not wired through")
				}
			}
		})
	}
}

// TestLinkScheduleIgnoresOtherLinks sends a→b under a random adversary
// twice: alone, and with two c→d messages before every a→b send. a→b's
// delivery schedule must not move, because each link draws from its own
// stream; on one shared stream the c→d draws would shift every a→b fate.
func TestLinkScheduleIgnoresOtherLinks(t *testing.T) {
	spec := FaultSpec{
		ReorderProb: 0.3, ReorderMaxUS: 10,
		DupProb: 0.3, DupDelayUS: 5,
		Bursts: []BurstSpec{{PeriodUS: 40, LenUS: 20, DropProb: 0.5}},
	}
	run := func(extra bool) []arrival {
		k := sim.New()
		net := New(k, DefaultParams(), 1)
		net.SetInjector(NewInjector(spec, 3))
		var got []arrival
		net.AttachOn(k, "b", func(at sim.Time, m *Message) {
			got = append(got, arrival{ID: m.Payload.(int), At: at})
		})
		net.AttachOn(k, "d", func(sim.Time, *Message) {})
		a, c := net.AttachOn(k, "a", nil), net.AttachOn(k, "c", nil)
		for i := 0; i < 200; i++ {
			i := i
			k.Schedule(sim.Time(int64(i)*int64(time.Microsecond)), func() {
				if extra {
					c.SendPooled("d", 0, i, nil)
					c.SendPooled("d", 0, i, nil)
				}
				a.SendPooled("b", 0, i, nil)
			})
		}
		k.Run()
		return got
	}
	alone, busy := run(false), run(true)
	if len(alone) == 0 {
		t.Fatal("a→b delivered nothing")
	}
	if !reflect.DeepEqual(alone, busy) {
		t.Fatal("c→d traffic moved the a→b fault schedule")
	}
}

// TestPartitionHealRestoresConnectivity cuts a→b for [100µs, 300µs) and
// expects exactly the in-window messages to vanish: connectivity before the
// cut and — the heal contract — after it, with every loss attributed to the
// partition counter.
func TestPartitionHealRestoresConnectivity(t *testing.T) {
	spec := FaultSpec{Partitions: []PartitionSpec{{From: "a", To: "b", StartUS: 100, EndUS: 300}}}
	got, _, net := runAdversary(t, spec, 3, 50, 10*time.Microsecond) // sends at 0,10,...,490µs
	seen := make(map[int]bool, len(got))
	for _, ar := range got {
		seen[ar.ID] = true
	}
	for i := 0; i < 50; i++ {
		at := time.Duration(i) * 10 * time.Microsecond
		inCut := at >= 100*time.Microsecond && at < 300*time.Microsecond
		if inCut && seen[i] {
			t.Errorf("message %d sent at %v crossed the partition", i, at)
		}
		if !inCut && !seen[i] {
			t.Errorf("message %d sent at %v lost outside the cut window", i, at)
		}
	}
	if net.DroppedFault != 20 {
		t.Errorf("DroppedFault = %d, want 20", net.DroppedFault)
	}
	if inj := net.inj; inj.DropsPartition != 20 || inj.DropsBurst != 0 {
		t.Errorf("drop attribution: partition=%d burst=%d, want 20/0", inj.DropsPartition, inj.DropsBurst)
	}
}

// TestPartitionDirectionality checks the symmetric knob: a one-sided cut
// From a To b must leave b→a traffic flowing, and a symmetric cut must
// black-hole both directions.
func TestPartitionDirectionality(t *testing.T) {
	run := func(symmetric bool) (ab, ba int) {
		k := sim.New()
		net := New(k, DefaultParams(), 1)
		net.SetInjector(NewInjector(FaultSpec{
			Partitions: []PartitionSpec{{From: "a", To: "b", Symmetric: symmetric}},
		}, 1))
		var atB, atA int
		b := net.AttachOn(k, "b", func(at sim.Time, m *Message) { atB++ })
		a := net.AttachOn(k, "a", func(at sim.Time, m *Message) { atA++ })
		for i := 0; i < 10; i++ {
			k.Schedule(sim.Time(int64(i)*int64(time.Microsecond)), func() {
				a.SendPooled("b", 0, nil, nil)
				b.SendPooled("a", 0, nil, nil)
			})
		}
		k.Run()
		return atB, atA
	}
	if ab, ba := run(false); ab != 0 || ba != 10 {
		t.Errorf("asymmetric cut: a→b delivered %d (want 0), b→a delivered %d (want 10)", ab, ba)
	}
	if ab, ba := run(true); ab != 0 || ba != 0 {
		t.Errorf("symmetric cut: a→b delivered %d, b→a delivered %d, want 0/0", ab, ba)
	}
}

// TestReorderBoundRespected turns every message into a straggler and checks
// the contract: each is held at most ReorderMaxUS past its FIFO delivery
// point, and the holds genuinely let later messages overtake.
func TestReorderBoundRespected(t *testing.T) {
	const maxUS = 20
	spec := FaultSpec{ReorderProb: 1, ReorderMaxUS: maxUS}
	got, _, net := runAdversary(t, spec, 5, 100, time.Microsecond)
	if len(got) != 100 {
		t.Fatalf("delivered %d of 100 — reordering must not lose messages", len(got))
	}
	prop := DefaultParams().Propagation
	for _, ar := range got {
		sent := time.Duration(ar.ID) * time.Microsecond
		hold := ar.At.Duration() - sent - prop
		if hold <= 0 || hold > maxUS*time.Microsecond {
			t.Fatalf("message %d held %v past its FIFO point, want (0, %dµs]", ar.ID, hold, maxUS)
		}
	}
	if sort.SliceIsSorted(got, func(i, j int) bool { return got[i].ID < got[j].ID }) {
		t.Fatal("delivery stayed in send order — nothing actually overtook")
	}
	if net.Reordered != 100 {
		t.Errorf("Reordered = %d, want 100", net.Reordered)
	}
}

// TestDuplicateDeliveredTwice turns every message into a duplicate and
// checks each arrives exactly twice, the copy strictly after the original,
// and that the sender's release hook fires once, after the copy.
func TestDuplicateDeliveredTwice(t *testing.T) {
	spec := FaultSpec{DupProb: 1, DupDelayUS: 5}
	got, released, net := runAdversary(t, spec, 6, 50, time.Microsecond)
	if len(got) != 100 {
		t.Fatalf("delivered %d arrivals for 50 duplicated sends, want 100", len(got))
	}
	first := make(map[int]sim.Time, 50)
	count := make(map[int]int, 50)
	for _, ar := range got {
		count[ar.ID]++
		if prev, ok := first[ar.ID]; !ok {
			first[ar.ID] = ar.At
		} else if ar.At <= prev {
			t.Fatalf("message %d: copy at %v not strictly after original at %v", ar.ID, ar.At, prev)
		}
	}
	last := make(map[int]sim.Time, 50)
	for _, ar := range got {
		last[ar.ID] = ar.At
	}
	for id, c := range count {
		if c != 2 {
			t.Errorf("message %d delivered %d times, want 2", id, c)
		}
		if released[id] != last[id] {
			t.Errorf("message %d released at %v, want at its second copy's arrival %v", id, released[id], last[id])
		}
	}
	if net.Duplicated != 50 {
		t.Errorf("Duplicated = %d, want 50", net.Duplicated)
	}
}

// TestGraySlowdownWindowed checks a gray failure slows — without losing or
// reordering — exactly the traffic inside its window.
func TestGraySlowdownWindowed(t *testing.T) {
	spec := FaultSpec{Gray: []GraySpec{{Endpoint: "b", MeanUS: 10, EndUS: 200}}}
	got, _, net := runAdversary(t, spec, 8, 40, 10*time.Microsecond) // sends at 0,10,...,390µs
	if len(got) != 40 {
		t.Fatalf("delivered %d of 40 — gray failures must not lose messages", len(got))
	}
	for i, ar := range got {
		if ar.ID != i {
			t.Fatalf("gray slowdown reordered delivery: position %d got message %d", i, ar.ID)
		}
	}
	prop := DefaultParams().Propagation
	var slowed time.Duration
	for _, ar := range got {
		sent := time.Duration(ar.ID) * 10 * time.Microsecond
		if sent < 200*time.Microsecond {
			slowed += ar.At.Duration() - sent - prop
		}
	}
	if slowed == 0 {
		t.Fatal("no extra latency inside the gray window")
	}
	if net.inj.GrayDelays != 20 {
		t.Errorf("GrayDelays = %d, want 20 (one per in-window message at prob 1)", net.inj.GrayDelays)
	}
}

// TestBurstDropsAttributed uses a deterministic full-loss burst (dropProb 1,
// 50µs on / 50µs off) and checks the exact on-window messages die, counted
// on the burst attribution counter.
func TestBurstDropsAttributed(t *testing.T) {
	spec := FaultSpec{Bursts: []BurstSpec{{PeriodUS: 100, LenUS: 50, DropProb: 1, To: "b"}}}
	got, _, net := runAdversary(t, spec, 2, 30, 10*time.Microsecond) // sends at 0,10,...,290µs
	seen := make(map[int]bool, len(got))
	for _, ar := range got {
		seen[ar.ID] = true
	}
	drops := 0
	for i := 0; i < 30; i++ {
		at := time.Duration(i) * 10 * time.Microsecond
		inBurst := (at % (100 * time.Microsecond)) < 50*time.Microsecond
		if inBurst {
			drops++
		}
		if inBurst == seen[i] {
			t.Errorf("message %d at %v: inBurst=%v but delivered=%v", i, at, inBurst, seen[i])
		}
	}
	if inj := net.inj; inj.DropsBurst != int64(drops) || inj.DropsPartition != 0 {
		t.Errorf("drop attribution: burst=%d partition=%d, want %d/0", inj.DropsBurst, inj.DropsPartition, drops)
	}
}

// TestFaultSpecValidate sweeps the malformed-knob table.
func TestFaultSpecValidate(t *testing.T) {
	bad := []struct {
		name string
		spec FaultSpec
	}{
		{"dup prob without delay", FaultSpec{DupProb: 0.5}},
		{"dup prob above 1", FaultSpec{DupProb: 1.5, DupDelayUS: 5}},
		{"negative reorder prob", FaultSpec{ReorderProb: -0.1, ReorderMaxUS: 10}},
		{"reorder prob without bound", FaultSpec{ReorderProb: 0.5}},
		{"empty partition window", FaultSpec{Partitions: []PartitionSpec{{StartUS: 100, EndUS: 100}}}},
		{"inverted partition window", FaultSpec{Partitions: []PartitionSpec{{StartUS: 200, EndUS: 100}}}},
		{"gray without mean", FaultSpec{Gray: []GraySpec{{Endpoint: "b"}}}},
		{"gray prob above 1", FaultSpec{Gray: []GraySpec{{Endpoint: "b", MeanUS: 5, Prob: 2}}}},
		{"burst longer than period", FaultSpec{Bursts: []BurstSpec{{PeriodUS: 10, LenUS: 20, DropProb: 0.5}}}},
		{"burst zero period", FaultSpec{Bursts: []BurstSpec{{LenUS: 1, DropProb: 0.5}}}},
	}
	for _, c := range bad {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a malformed spec", c.name)
		}
	}
	good := []FaultSpec{
		{},
		{Partitions: []PartitionSpec{{To: "b", StartUS: 10}}}, // EndUS 0 = never heals
		{DupProb: 0.5, DupDelayUS: 1, ReorderProb: 0.5, ReorderMaxUS: 1},
	}
	for i, spec := range good {
		if err := spec.Validate(); err != nil {
			t.Errorf("good spec %d rejected: %v", i, err)
		}
	}
	if !(&FaultSpec{Name: "none"}).Empty() {
		t.Error("name-only spec should be Empty")
	}
	if (&FaultSpec{DupProb: 0.5, DupDelayUS: 1}).Empty() {
		t.Error("dup spec should not be Empty")
	}
}
