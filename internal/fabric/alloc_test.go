package fabric

import (
	"testing"

	"prdma/internal/sim"
)

// TestSendDeliverAllocRegression pins the steady-state allocation cost of
// the pooled fabric data plane: once the envelope free list is warm, a
// SendPooled plus its delivery must not allocate at all. The kernel's event
// heap may grow once while warming, which is why the measured phase runs
// after a warm-up batch.
func TestSendDeliverAllocRegression(t *testing.T) {
	k := sim.New()
	n := New(k, DefaultParams(), 1)
	delivered := 0
	n.AttachOn(k, "b", func(at sim.Time, m *Message) { delivered++ })
	a := n.AttachOn(k, "a", nil)

	send := func(rounds int) {
		for i := 0; i < rounds; i++ {
			a.SendPooled("b", 1024, nil, nil)
			k.Run()
		}
	}
	send(64) // warm the envelope pool and event heap

	const rounds = 100
	per := testing.AllocsPerRun(5, func() { send(rounds) }) / rounds
	// Expected: 0 allocs per send+deliver. The envelope, its delivery thunk,
	// and the event slot all come from pools.
	if per > 0 {
		t.Fatalf("send+deliver allocates %.2f objects/op, want 0", per)
	}
	if delivered == 0 {
		t.Fatal("no messages delivered")
	}
}
