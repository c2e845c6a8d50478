package failure

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
	"time"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/rnic"
	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// TestAckedWritesSurviveAnyCrashSchedule is the system's end-to-end
// durability invariant: for any schedule of crashes, every write whose
// persistence was acknowledged to the client before a crash must be
// readable — with its latest acknowledged contents — once the system
// settles. This is the guarantee the Flush primitives exist to provide.
func TestAckedWritesSurviveAnyCrashSchedule(t *testing.T) {
	f := func(crashGaps []uint16, seed uint64) bool {
		if len(crashGaps) > 6 {
			crashGaps = crashGaps[:6]
		}
		k, cli, srv, engine := buildRig(1) // Workers=1: strict FIFO apply
		client := rpc.New(rpc.WFlushRPC, cli, engine, engine.Cfg).(rpc.Recoverable)

		const keys = 32
		const valSize = 256
		// lastAcked[key] = version of the last acknowledged write.
		lastAcked := make(map[uint64]uint32)
		version := uint32(0)

		payload := func(key uint64, ver uint32) []byte {
			b := bytes.Repeat([]byte{byte(ver)}, valSize)
			binary.LittleEndian.PutUint64(b[0:], key)
			binary.LittleEndian.PutUint32(b[8:], ver)
			return b
		}

		rng := sim.NewRand(seed)
		s := &Server{
			K: k, Host: srv, Fail: func() { srv.Crash(); engine.Crash() },
			Reestablish: client.Reestablish, Restart: time.Millisecond, Retransfer: 200 * time.Microsecond,
		}
		handled := 0
		ok := true

		k.Go("driver", func(p *sim.Proc) {
			for round := 0; round <= len(crashGaps); round++ {
				// A burst of writes.
				for i := 0; i < 25; i++ {
					s.Ready(p)
					key := uint64(rng.Intn(keys))
					version++
					ver := version
					_, err := client.CallTimeout(p,
						&rpc.Request{Op: rpc.OpWrite, Key: key, Size: valSize, Payload: payload(key, ver)},
						300*time.Microsecond)
					if err == nil {
						lastAcked[key] = ver // acked: must survive anything
					}
				}
				if round < len(crashGaps) {
					// Crash after a schedule-dependent pause.
					p.Sleep(time.Duration(crashGaps[round]%500) * time.Microsecond)
					s.Crash()
				}
			}
			// Settle: reconnect if needed, let the backlog apply.
			s.Ready(p)
			p.Sleep(10 * time.Millisecond)

			// Verify every acknowledged write.
			for key, ver := range lastAcked {
				r, err := client.CallTimeout(p,
					&rpc.Request{Op: rpc.OpRead, Key: key, Size: valSize, Payload: []byte{}},
					10*time.Millisecond)
				if err != nil {
					ok = false
					t.Logf("seed %d: read key %d: %v", seed, key, err)
					return
				}
				if len(r.Data) != valSize {
					ok = false
					t.Logf("seed %d: key %d short read", seed, key)
					return
				}
				gotKey := binary.LittleEndian.Uint64(r.Data[0:])
				gotVer := binary.LittleEndian.Uint32(r.Data[8:])
				// The read must observe the last acked version or a NEWER
				// acknowledged... no newer exists: lastAcked is the newest.
				// An unacked-but-durable later write may also have applied
				// (at-least-once), so allow gotVer >= ver for the same key.
				if gotKey != key || gotVer < ver {
					ok = false
					t.Logf("seed %d: key %d has v%d, acked v%d", seed, key, gotVer, ver)
					return
				}
				handled++
			}
		})
		k.Run()
		return ok && handled > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// buildRig is a light-weight rig constructor for the fuzz test.
func buildRig(workers int) (*sim.Kernel, *host.Host, *host.Host, *rpc.Server) {
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), 23)
	cli := host.New(k, "cli", net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
	srv := host.New(k, "srv", net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
	store, err := rpc.NewStore(srv, 64, 256)
	if err != nil {
		panic(err)
	}
	cfg := rpc.DefaultConfig()
	cfg.Workers = workers
	return k, cli, srv, rpc.NewServer(srv, store, cfg)
}
