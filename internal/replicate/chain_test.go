package replicate

import (
	"bytes"
	"testing"
	"time"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

func chainRig(t *testing.T, replicas int, emulate bool) (*sim.Kernel, *host.Host, []*host.Host) {
	t.Helper()
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), 31)
	np := rnic.DefaultParams()
	np.EmulateFlush = emulate
	cli := host.New(k, "cli", net, host.DefaultParams(), pmem.DefaultParams(), np)
	var hs []*host.Host
	for i := 0; i < replicas; i++ {
		hs = append(hs, host.New(k, nameOf(i), net, host.DefaultParams(), pmem.DefaultParams(), np))
	}
	return k, cli, hs
}

func TestChainAllReplicasDurableAtAck(t *testing.T) {
	for _, emulate := range []bool{false} {
		k, cli, hs := chainRig(t, 3, emulate)
		chain, err := NewChain(cli, hs)
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{0xC4}, 4096)
		k.Go("driver", func(p *sim.Proc) {
			at := chain.Write(p, 8192, len(data), data)
			if at == 0 {
				t.Error("no completion")
			}
			// The single ACK certifies the WHOLE group: every replica
			// must hold the bytes durably right now.
			for i, h := range hs {
				if got := h.PM.ReadBytes(8192, len(data)); !bytes.Equal(got, data) {
					t.Errorf("emulate=%v: replica %d not durable at chain ACK", emulate, i)
				}
			}
		})
		k.Run()
	}
}

func TestChainAckLaterThanSingleReplica(t *testing.T) {
	lat := func(replicas int) time.Duration {
		k, cli, hs := chainRig(t, replicas, false)
		chain, _ := NewChain(cli, hs)
		var d time.Duration
		k.Go("driver", func(p *sim.Proc) {
			start := p.Now()
			chain.Write(p, 0, 1024, nil)
			d = p.Now().Sub(start)
		})
		k.Run()
		return d
	}
	one, three := lat(1), lat(3)
	if three <= one {
		t.Fatalf("3-replica chain (%v) should cost more than 1 (%v): hops serialize", three, one)
	}
	// But not absurdly more: forwarding overlaps with local persistence.
	if three > 5*one {
		t.Fatalf("chain scaling looks wrong: %v vs %v", three, one)
	}
}

func TestChainNoReplicaCPUInvolved(t *testing.T) {
	// The whole chain write must complete without any replica host
	// software cost: the NICs do everything.
	k, cli, hs := chainRig(t, 3, false)
	chain, _ := NewChain(cli, hs)
	k.Go("driver", func(p *sim.Proc) {
		chain.Write(p, 0, 4096, nil)
	})
	k.Run()
	for i, h := range hs {
		if h.SWTime != 0 {
			t.Errorf("replica %d spent %v of CPU time on a NIC-offloaded chain", i, h.SWTime)
		}
	}
	if chain.Writes != 1 {
		t.Fatalf("chain bookkeeping: writes=%d", chain.Writes)
	}
}

func TestChainMidReplicaCrashStallsAck(t *testing.T) {
	k, cli, hs := chainRig(t, 3, false)
	chain, _ := NewChain(cli, hs)
	hs[1].Crash() // middle of the chain is down
	completed := false
	k.Go("driver", func(p *sim.Proc) {
		chain.Write(p, 0, 1024, nil)
		completed = true
	})
	k.RunFor(50 * time.Millisecond)
	k.Shutdown()
	if completed {
		t.Fatal("chain ACK arrived despite a dead replica: group durability violated")
	}
}

func TestChainEmptyRejected(t *testing.T) {
	k, cli, _ := chainRig(t, 1, false)
	_ = k
	if _, err := NewChain(cli, nil); err == nil {
		t.Fatal("expected error for empty chain")
	}
}

func TestChainRequiresNativeFlush(t *testing.T) {
	k, cli, hs := chainRig(t, 2, true) // emulated flush
	_ = k
	if _, err := NewChain(cli, hs); err == nil {
		t.Fatal("expected error: chain offload needs native primitives")
	}
}
