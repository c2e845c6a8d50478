package fabric

import (
	"testing"

	"prdma/internal/sim"
)

// BenchmarkSendDeliver measures one message send plus delivery through the
// switch model (serialization, propagation, handler dispatch) on the pooled
// envelope path the NIC data plane uses (alloc-free in steady state).
func BenchmarkSendDeliver(b *testing.B) {
	k := sim.New()
	n := New(k, DefaultParams(), 1)
	delivered := 0
	n.AttachOn(k, "b", func(at sim.Time, m *Message) { delivered++ })
	a := n.AttachOn(k, "a", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SendPooled("b", 1024, nil, nil)
		k.Run()
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}
