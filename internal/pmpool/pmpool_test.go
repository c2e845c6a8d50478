package pmpool

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"prdma/internal/fabric"
	"prdma/internal/graph"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/rnic"
	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// testCluster builds n pool servers and one client pool on a fresh kernel.
func testCluster(t *testing.T, n int, scfg ServerConfig) (*sim.Kernel, []*Server, *Pool) {
	t.Helper()
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), 1)
	rcfg := rpc.DefaultConfig()
	rcfg.LogBytes = 64 << 10
	servers := make([]*Server, n)
	for i := range servers {
		h := host.New(k, "pool"+string(rune('0'+i)), net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
		servers[i] = NewServer(h, rcfg, scfg)
	}
	cli := host.New(k, "cli", net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
	pcfg := DefaultPoolConfig(1)
	pcfg.LeaseTTL = scfg.LeaseTTL
	pool := NewPool(cli, servers, rcfg, pcfg)
	return k, servers, pool
}

func stopAll(pool *Pool, servers []*Server) {
	pool.Stop()
	for _, s := range servers {
		s.Stop()
	}
}

func TestPoolAllocWriteReadFree(t *testing.T) {
	k, servers, pool := testCluster(t, 1, DefaultServerConfig())
	srv := servers[0]
	k.Go("driver", func(p *sim.Proc) {
		defer stopAll(pool, servers)
		h, err := pool.Alloc(p, 1000)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		if h.Class != 1024 {
			t.Errorf("class = %d, want 1024", h.Class)
		}
		data := make([]byte, 1000)
		for i := range data {
			data[i] = byte(i * 7)
		}
		if err := pool.Write(p, h, 0, data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		rd, err := pool.Read(p, h, 16, 64)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if !bytes.Equal(rd, data[16:80]) {
			t.Errorf("read returned wrong bytes")
		}
		// The read is FIFO-ordered behind the write on the same connection,
		// so by now the apply has landed the payload in the extent: the
		// durable-on-return ack (payload in the redo log) has been turned
		// into durable contents at the allocation's address.
		got := srv.H.PM.ReadBytes(h.Addr, len(data))
		if !bytes.Equal(got, data) {
			t.Errorf("applied write missing from the allocation's extent")
		}
		if err := pool.Free(p, h); err != nil {
			t.Errorf("free: %v", err)
			return
		}
		if srv.Live() != 0 || srv.Slabs().Live() != 0 {
			t.Errorf("server still holds %d allocations after free", srv.Live())
		}
		if len(srv.OwnedIDs()) != 0 {
			t.Errorf("durable owner table still holds freed ids")
		}
		if err := srv.Slabs().CheckConsistent(); err != nil {
			t.Errorf("slabs inconsistent: %v", err)
		}
	})
	k.Run()
	k.Shutdown()
}

// TestPoolAllocHugeSize checks that an alloc whose size has no size class
// (doubling the class toward it overflows int64) fails with ErrTooLarge
// instead of hanging the server's worker and with it the simulation. The
// kernel runs on its own goroutine, so a hang fails the test.
func TestPoolAllocHugeSize(t *testing.T) {
	k, servers, pool := testCluster(t, 1, DefaultServerConfig())
	var err error
	k.Go("alloc", func(p *sim.Proc) {
		defer stopAll(pool, servers)
		_, err = pool.Alloc(p, 1<<62+1)
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		k.Run()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Alloc of 2^62+1 bytes did not return")
	}
	k.Shutdown()
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Alloc of 2^62+1 bytes: err = %v, want ErrTooLarge", err)
	}
}

func TestPoolStriping(t *testing.T) {
	scfg := DefaultServerConfig()
	k, servers, pool := testCluster(t, 4, scfg)
	k.Go("driver", func(p *sim.Proc) {
		defer stopAll(pool, servers)
		seen := map[int]int{}
		var hs []*Handle
		for i := 0; i < 64; i++ {
			h, err := pool.Alloc(p, 256)
			if err != nil {
				t.Errorf("alloc %d: %v", i, err)
				return
			}
			seen[h.Server]++
			hs = append(hs, h)
		}
		if len(seen) < 3 {
			t.Errorf("64 allocations landed on only %d of 4 servers: %v", len(seen), seen)
		}
		for _, h := range hs {
			if err := pool.Free(p, h); err != nil {
				t.Errorf("free: %v", err)
				return
			}
		}
	})
	k.Run()
	k.Shutdown()
}

func TestPoolLeaseReclaim(t *testing.T) {
	scfg := DefaultServerConfig()
	scfg.LeaseTTL = 500 * time.Microsecond
	scfg.ReclaimEvery = 200 * time.Microsecond
	k, servers, pool := testCluster(t, 1, scfg)
	srv := servers[0]
	k.Go("driver", func(p *sim.Proc) {
		kept, err := pool.Alloc(p, 128)
		if err != nil {
			t.Errorf("alloc kept: %v", err)
			return
		}
		orphan, err := pool.Alloc(p, 128)
		if err != nil {
			t.Errorf("alloc orphan: %v", err)
			return
		}
		// The orphan stops being renewed; the kept handle's lease stays
		// alive through the renewer across many TTLs.
		pool.Abandon(orphan)
		p.Sleep(10 * scfg.LeaseTTL)
		if srv.Reclaimed != 1 {
			t.Errorf("Reclaimed = %d, want 1 (the orphan)", srv.Reclaimed)
		}
		owned := srv.OwnedIDs()
		if _, ok := owned[orphan.ID]; ok {
			t.Errorf("orphaned id still durably owned after %v", 10*scfg.LeaseTTL)
		}
		if _, ok := owned[kept.ID]; !ok {
			t.Errorf("renewed id was reclaimed")
		}
		if err := pool.Free(p, kept); err != nil {
			t.Errorf("free kept: %v", err)
		}
		stopAll(pool, servers)
	})
	k.Run()
	k.Shutdown()
}

func TestPoolCrashRecovery(t *testing.T) {
	scfg := DefaultServerConfig()
	k, servers, pool := testCluster(t, 1, scfg)
	srv := servers[0]
	k.Go("driver", func(p *sim.Proc) {
		defer stopAll(pool, servers)
		var hs []*Handle
		var imgs [][]byte
		for i := 0; i < 8; i++ {
			h, err := pool.Alloc(p, 512)
			if err != nil {
				t.Errorf("alloc %d: %v", i, err)
				return
			}
			img := make([]byte, 512)
			for j := range img {
				img[j] = byte(i + j*3)
			}
			if err := pool.Write(p, h, 0, img); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			hs = append(hs, h)
			imgs = append(imgs, img)
		}
		pool.Free(p, hs[3])

		// Crash, restart, recover, reestablish: the rebuilt pool must hold
		// exactly the live allocations with their contents.
		srv.Crash()
		srv.H.Restart()
		p.Sleep(100 * time.Microsecond)
		if err := srv.Recover(p); err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		if _, err := pool.Reestablish(p, 0); err != nil {
			t.Errorf("reestablish: %v", err)
			return
		}
		if srv.Live() != 7 {
			t.Errorf("recovered %d live allocations, want 7", srv.Live())
		}
		if err := srv.Slabs().CheckConsistent(); err != nil {
			t.Errorf("recovered slabs inconsistent: %v", err)
		}
		for i, h := range hs {
			if i == 3 {
				continue
			}
			rd, err := pool.Read(p, h, 0, 512)
			if err != nil {
				t.Errorf("post-recovery read %d: %v", i, err)
				return
			}
			if !bytes.Equal(rd, imgs[i]) {
				t.Errorf("post-recovery contents of allocation %d differ", i)
			}
		}
		// The rebuilt allocator keeps serving: the freed slot is reusable.
		h, err := pool.Alloc(p, 512)
		if err != nil {
			t.Errorf("post-recovery alloc: %v", err)
			return
		}
		if err := pool.Free(p, h); err != nil {
			t.Errorf("post-recovery free: %v", err)
		}
	})
	k.Run()
	k.Shutdown()
}

func TestShuffleMatchesLocal(t *testing.T) {
	scfg := DefaultServerConfig()
	scfg.PoolBytes = 1 << 22
	scfg.SlabBytes = 1 << 15
	k, servers, pool := testCluster(t, 2, scfg)
	g := graph.Generate(graph.Dataset{Name: "test", Nodes: 200, Edges: 1200}, 7)
	cfg := ShuffleConfig{Maps: 3, Reducers: 2, Iterations: 4}
	var remote []float64
	k.Go("driver", func(p *sim.Proc) {
		defer stopAll(pool, servers)
		var err error
		var stats ShuffleStats
		remote, stats, err = ShufflePageRank(p, []*Pool{pool}, g, cfg)
		if err != nil {
			t.Errorf("shuffle: %v", err)
			return
		}
		if stats.Blocks == 0 || stats.Bytes == 0 {
			t.Errorf("shuffle moved no data through the pool")
		}
	})
	k.Run()
	k.Shutdown()
	if t.Failed() {
		return
	}
	local := LocalShufflePageRank(g, cfg)
	if len(remote) != len(local) {
		t.Fatalf("rank vector length %d vs %d", len(remote), len(local))
	}
	for i := range local {
		if remote[i] != local[i] {
			t.Fatalf("rank[%d]: remote %v != local %v (must be bit-identical)", i, remote[i], local[i])
		}
	}
	// Nothing may leak: every shuffle block was freed.
	for _, s := range servers {
		if s.Live() != 0 || len(s.OwnedIDs()) != 0 {
			t.Fatalf("shuffle leaked %d allocations on %s", s.Live(), s.H.Name)
		}
	}
}
