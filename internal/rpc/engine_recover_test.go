package rpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// recFill builds the versioned payload the recovery check inspects: key at
// offset 0, version at 8, deterministic pattern from 16.
func recFill(size int, key uint64, ver uint32) []byte {
	b := make([]byte, size)
	binary.LittleEndian.PutUint64(b, key)
	binary.LittleEndian.PutUint32(b[8:], ver)
	for j := 16; j < size; j++ {
		b[j] = byte(13*key + 7*uint64(ver) + uint64(j))
	}
	return b
}

// TestEngineModeRecovery crashes the server of a cross-kernel durable
// connection mid-persist at a window barrier, restarts it a barrier later,
// reestablishes from the client partition inside the serialized span, and
// asserts the §4.2 contract: every write whose durability was acknowledged
// before the crash is resident untorn at its acked version or newer after
// replay. S-Flush and WR-Flush cover both redo-log ownership splits
// (server-side persist scheduling vs client-driven flush).
func TestEngineModeRecovery(t *testing.T) {
	const (
		objSize  = 64
		procs    = 3
		ops      = 30
		restart  = 500 * time.Microsecond
		retry    = 100 * time.Microsecond
		crashWin = 25
	)
	for _, tc := range []struct {
		name string
		kind Kind
	}{
		{"sflush", SFlushRPC},
		{"wrflush", WRFlushRPC},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fp := fabric.DefaultParams()
			e := sim.NewEngine(fp.Lookahead(), 2)
			kc, ks := e.NewKernel(), e.NewKernel()
			net := fabric.New(kc, fp, 11)
			cli := host.New(kc, "cli", net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
			srv := host.New(ks, "srv", net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
			store, err := NewStore(srv, 256, objSize)
			if err != nil {
				t.Fatal(err)
			}
			store.VersionAt = 8
			server := NewServer(srv, store, DefaultConfig())
			c := New(tc.kind, cli, server, server.Cfg)
			rec, ok := c.(Recoverable)
			if !ok {
				t.Fatalf("%v is not recoverable", tc.kind)
			}

			serverUp := true
			generation, reestGen := 0, 0
			reconnecting := false
			acked := make(map[uint64]uint32)
			done := 0

			// One client-kernel proc owns re-establishment so the replay is
			// enqueued before any worker's retried requests (Reestablish is
			// legal here because the driver holds the Serialize token across
			// the outage).
			kc.Go("monitor", func(p *sim.Proc) {
				for {
					p.Sleep(20 * time.Microsecond)
					if serverUp && reestGen != generation {
						reconnecting = true
						if _, err := rec.Reestablish(p); err != nil {
							panic(err)
						}
						reestGen = generation
						reconnecting = false
					}
				}
			})
			for pi := 0; pi < procs; pi++ {
				pi := pi
				kc.Go(fmt.Sprintf("wrk-%d", pi), func(p *sim.Proc) {
					for i := 0; i < ops; i++ {
						key := uint64(pi*8 + i%8)
						ver := uint32(i/8 + 1)
						req := &Request{Op: OpWrite, Key: key, Size: objSize, Payload: recFill(objSize, key, ver)}
						for {
							for !serverUp || reconnecting || reestGen != generation {
								p.Sleep(retry / 4)
							}
							if _, err := rec.CallTimeout(p, req, retry); err == nil {
								break
							}
						}
						if ver > acked[key] {
							acked[key] = ver
						}
						done++
					}
				})
			}

			// Run the healthy prefix in parallel windows, then crash at a
			// barrier and drive the outage serialized.
			e.RunWindows(crashWin)
			e.Serialize()
			srv.Crash()
			server.Crash()
			store.Crash()
			serverUp = false
			crashAt := kc.Now()
			if len(acked) == 0 {
				t.Fatal("no write acked before the crash — the crash window tests nothing")
			}
			restarted := false
			horizon := crashAt.Add(200 * time.Millisecond)
			for done < procs*ops && kc.Now() < horizon {
				if !restarted && kc.Now() >= crashAt.Add(restart) {
					srv.Restart()
					serverUp = true
					generation++
					restarted = true
				}
				if e.RunWindows(8) == 0 {
					break
				}
			}
			e.Unserialize()
			if done != procs*ops {
				t.Fatalf("%d/%d ops completed (stranded worker?)", done, procs*ops)
			}
			if reestGen != generation || generation == 0 {
				t.Fatalf("reestablish never completed: gen=%d reestGen=%d", generation, reestGen)
			}

			// §4.2 invariants: every acked write resident, untorn, at its
			// acked version or newer (version monotone through replay).
			buf := make([]byte, objSize)
			for key, ver := range acked {
				if !store.Has(key) {
					t.Fatalf("key %d: acked ver %d but nothing resident after replay", key, ver)
				}
				got := srv.PM.ReadBytesInto(store.Addr(key), buf)
				gotVer := binary.LittleEndian.Uint32(got[8:12])
				if gotVer < ver {
					t.Fatalf("key %d: acked ver %d but stored ver %d — acked write lost", key, ver, gotVer)
				}
				if !bytes.Equal(got, recFill(objSize, key, gotVer)) {
					t.Fatalf("key %d: stored payload torn at ver %d", key, gotVer)
				}
			}
			e.Shutdown()
		})
	}
}
