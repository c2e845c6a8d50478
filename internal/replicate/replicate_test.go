package replicate

import (
	"bytes"
	"testing"
	"time"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/rnic"
	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// rig is a one-client, R-replica test cluster.
type rig struct {
	k       *sim.Kernel
	cli     *host.Host
	servers []*host.Host
	engines []*rpc.Server
	clients []rpc.Client
}

func newRig(t *testing.T, replicas int, kind rpc.Kind, slow int) *rig {
	t.Helper()
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), 17)
	r := &rig{k: k}
	r.cli = host.New(k, "cli", net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
	for i := 0; i < replicas; i++ {
		hp := host.DefaultParams()
		if i == slow {
			hp.LoadFactor = 6 // a straggler replica
		}
		srv := host.New(k, nameOf(i), net, hp, pmem.DefaultParams(), rnic.DefaultParams())
		store, err := rpc.NewStore(srv, 128, 1024)
		if err != nil {
			t.Fatal(err)
		}
		engine := rpc.NewServer(srv, store, rpc.DefaultConfig())
		r.servers = append(r.servers, srv)
		r.engines = append(r.engines, engine)
		r.clients = append(r.clients, rpc.New(kind, r.cli, engine, engine.Cfg))
	}
	return r
}

func nameOf(i int) string { return string(rune('A'+i)) + "-replica" }

func TestWriteReplicatesToAll(t *testing.T) {
	r := newRig(t, 3, rpc.WFlushRPC, -1)
	c, err := New(r.k, WaitAll, r.clients)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xEE}, 1024)
	r.k.Go("driver", func(p *sim.Proc) {
		at, acked, err := c.Write(p, &rpc.Request{Op: rpc.OpWrite, Key: 5, Size: 1024, Payload: payload})
		if err != nil {
			t.Error(err)
			return
		}
		if acked != 3 {
			t.Errorf("acked = %d", acked)
		}
		if at == 0 {
			t.Error("no completion time")
		}
	})
	r.k.Run()
	// Every replica's redo log holds the durable payload; give the engines
	// time to apply, then check the object homes.
	r.k.Go("verify", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		for i, srv := range r.servers {
			addr := r.engines[i].Store.Addr(5)
			if got := srv.PM.ReadBytes(addr, 1024); !bytes.Equal(got, payload) {
				t.Errorf("replica %d object home not durable", i)
			}
		}
	})
	r.k.Run()
}

func TestQuorumBeatsWaitAllWithStraggler(t *testing.T) {
	lat := func(policy Policy) time.Duration {
		r := newRig(t, 3, rpc.WFlushRPC, 2) // replica 2 is slow
		c, err := New(r.k, policy, r.clients)
		if err != nil {
			t.Fatal(err)
		}
		var total time.Duration
		const ops = 30
		r.k.Go("driver", func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				start := p.Now()
				if _, _, err := c.Write(p, &rpc.Request{Op: rpc.OpWrite, Key: uint64(i % 64), Size: 1024}); err != nil {
					t.Error(err)
					return
				}
				total += p.Now().Sub(start)
			}
		})
		r.k.Run()
		return total / ops
	}
	all, quorum := lat(WaitAll), lat(WaitQuorum)
	if quorum >= all {
		t.Fatalf("quorum (%v) should beat wait-all (%v) with a straggler", quorum, all)
	}
}

func TestQuorumCountsStragglerSaves(t *testing.T) {
	r := newRig(t, 3, rpc.WFlushRPC, 1)
	c, _ := New(r.k, WaitQuorum, r.clients)
	r.k.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if _, _, err := c.Write(p, &rpc.Request{Op: rpc.OpWrite, Key: uint64(i), Size: 1024}); err != nil {
				t.Error(err)
			}
		}
	})
	r.k.Run()
	if c.SlowestWaits == 0 {
		t.Fatal("quorum never completed ahead of the straggler")
	}
}

func TestReadFromPrimary(t *testing.T) {
	r := newRig(t, 2, rpc.WFlushRPC, -1)
	c, _ := New(r.k, WaitAll, r.clients)
	payload := bytes.Repeat([]byte{0x21}, 1024)
	r.k.Go("driver", func(p *sim.Proc) {
		if _, _, err := c.Write(p, &rpc.Request{Op: rpc.OpWrite, Key: 8, Size: 1024, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(time.Millisecond) // let the primary apply
		resp, err := c.Read(p, &rpc.Request{Op: rpc.OpRead, Key: 8, Size: 1024, Payload: []byte{}})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Data, payload) {
			t.Error("primary read mismatch")
		}
	})
	r.k.Run()
	if c.Reads != 1 || c.Writes != 1 {
		t.Fatalf("counters: %d reads %d writes", c.Reads, c.Writes)
	}
}

func TestReplicaCrashDataSurvivesOnOthers(t *testing.T) {
	r := newRig(t, 3, rpc.WFlushRPC, -1)
	c, _ := New(r.k, WaitQuorum, r.clients)
	payload := bytes.Repeat([]byte{0x37}, 1024)
	r.k.Go("driver", func(p *sim.Proc) {
		if _, _, err := c.Write(p, &rpc.Request{Op: rpc.OpWrite, Key: 1, Size: 1024, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		// Crash replica 2 immediately: its volatile state dies.
		r.servers[2].Crash()
		p.Sleep(time.Millisecond)
		// Replicas 0 and 1 still applied the write.
		for i := 0; i < 2; i++ {
			addr := r.engines[i].Store.Addr(1)
			if got := r.servers[i].PM.ReadBytes(addr, 1024); !bytes.Equal(got, payload) {
				t.Errorf("surviving replica %d lost the write", i)
			}
		}
	})
	r.k.Run()
}

func TestPolicyNeeds(t *testing.T) {
	r := newRig(t, 5, rpc.WFlushRPC, -1)
	all, _ := New(r.k, WaitAll, r.clients)
	q, _ := New(r.k, WaitQuorum, r.clients)
	if all.need() != 5 || q.need() != 3 {
		t.Fatalf("needs: all=%d quorum=%d", all.need(), q.need())
	}
}

func TestRejectsNonAsyncClients(t *testing.T) {
	r := newRig(t, 1, rpc.WFlushRPC, -1)
	// A FaRM client cannot fan out asynchronously.
	farm := rpc.New(rpc.FaRM, r.cli, r.engines[0], r.engines[0].Cfg)
	if _, err := New(r.k, WaitAll, []rpc.Client{farm}); err == nil {
		t.Fatal("expected error for non-async replica client")
	}
	if _, err := New(r.k, WaitAll, nil); err == nil {
		t.Fatal("expected error for zero replicas")
	}
}

// TestQuorumReadSkipsStaleReplica is the regression test for the read-path
// fix: under WaitQuorum a write completes before the straggler's ACK, and a
// read issued immediately afterwards must not land on the lagging replica
// (the old code always read replica 0). The straggler is replica 0, so any
// read it serves would return pre-write data.
func TestQuorumReadSkipsStaleReplica(t *testing.T) {
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), 17)
	cli := host.New(k, "cli", net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
	var clients []rpc.Client
	for i := 0; i < 3; i++ {
		pp := pmem.DefaultParams()
		if i == 0 {
			// Replica 0 (the old hard-wired read target) persists ~200 µs
			// late, so its WFlush ACK reliably trails the quorum and any
			// immediate read round trip.
			pp.PersistBase = 200 * time.Microsecond
		}
		srv := host.New(k, nameOf(i), net, host.DefaultParams(), pp, rnic.DefaultParams())
		store, err := rpc.NewStore(srv, 128, 1024)
		if err != nil {
			t.Fatal(err)
		}
		cfg := rpc.DefaultConfig()
		cfg.Workers = 1 // FIFO apply: a read behind a write sees it applied
		engine := rpc.NewServer(srv, store, cfg)
		clients = append(clients, rpc.New(rpc.WFlushRPC, cli, engine, cfg))
	}
	c, err := New(k, WaitQuorum, clients)
	if err != nil {
		t.Fatal(err)
	}
	const ops = 10
	k.Go("driver", func(p *sim.Proc) {
		for v := 0; v < ops; v++ {
			payload := bytes.Repeat([]byte{byte(0x40 + v)}, 1024)
			if _, _, err := c.Write(p, &rpc.Request{Op: rpc.OpWrite, Key: 9, Size: 1024, Payload: payload}); err != nil {
				t.Fatal(err)
			}
			// Read immediately: quorum met on replicas 1/2; replica 0 has
			// not acked yet and must be skipped by the staleness guard.
			resp, err := c.Read(p, &rpc.Request{Op: rpc.OpRead, Key: 9, Size: 1024, Payload: []byte{}})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resp.Data, payload) {
				t.Fatalf("op %d: read returned stale data", v)
			}
		}
	})
	k.Run()
	if c.ReadsByReplica[0] != 0 {
		t.Errorf("%d reads landed on the lagging replica 0", c.ReadsByReplica[0])
	}
	if c.StaleSkips == 0 {
		t.Error("staleness guard never skipped the straggler")
	}
	if got := c.ReadsByReplica[1] + c.ReadsByReplica[2]; got != ops {
		t.Errorf("in-sync replicas served %d reads, want %d", got, ops)
	}
}

// TestMembershipWriteSet checks MarkDown/MarkUp semantics: a marked-down
// replica receives no writes, WaitAll completes over the live set, a
// minority-live quorum refuses writes, and MarkUp credits the rejoiner as
// in sync again.
func TestMembershipWriteSet(t *testing.T) {
	r := newRig(t, 3, rpc.WFlushRPC, -1)
	c, _ := New(r.k, WaitQuorum, r.clients)
	all, _ := New(r.k, WaitAll, r.clients)
	// readers reports which replicas the next n reads are routed to, and
	// how many lagging replicas the routing skipped.
	readers := func(n int) (map[int]bool, int64) {
		skips, got := c.StaleSkips, map[int]bool{}
		for j := 0; j < n; j++ {
			got[c.pickReader()] = true
		}
		return got, c.StaleSkips - skips
	}
	r.k.Go("driver", func(p *sim.Proc) {
		c.MarkDown(2)
		if _, acked, err := c.Write(p, &rpc.Request{Op: rpc.OpWrite, Key: 3, Size: 1024}); err != nil || acked > 2 {
			t.Errorf("quorum write with one down replica: acked=%d err=%v", acked, err)
		}
		if got, _ := readers(3); got[2] {
			t.Error("down replica routed a read")
		}
		c.MarkDown(1)
		if _, _, err := c.Write(p, &rpc.Request{Op: rpc.OpWrite, Key: 3, Size: 1024}); err != ErrUnavailable {
			t.Errorf("minority-live quorum write: err=%v, want ErrUnavailable", err)
		}
		c.MarkUp(1)
		c.MarkUp(2)
		if got, skips := readers(3); !got[2] || skips != 0 {
			t.Errorf("readmitted replica not in sync: readers %v, %d stale skips", got, skips)
		}
		// WaitAll over a shrunken live set completes at 2 ACKs.
		all.MarkDown(0)
		if _, acked, err := all.Write(p, &rpc.Request{Op: rpc.OpWrite, Key: 4, Size: 1024}); err != nil || acked != 2 {
			t.Errorf("wait-all over live set: acked=%d err=%v", acked, err)
		}
	})
	r.k.Run()
	// Replica 2 missed the first quorum write; it must not serve reads for
	// it, and the second client's replica 0 likewise.
	if c.ReadsByReplica == nil || len(c.ReadsByReplica) != 3 {
		t.Fatal("ReadsByReplica not sized to the replica set")
	}
}

func TestWriteRejectsReads(t *testing.T) {
	r := newRig(t, 2, rpc.WFlushRPC, -1)
	c, _ := New(r.k, WaitAll, r.clients)
	r.k.Go("driver", func(p *sim.Proc) {
		if _, _, err := c.Write(p, &rpc.Request{Op: rpc.OpRead, Key: 1, Size: 64}); err == nil {
			t.Error("Write accepted a read")
		}
	})
	r.k.Run()
}
