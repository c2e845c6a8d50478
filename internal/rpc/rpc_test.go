package rpc

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// bench is a one-client one-server test cluster.
type bench struct {
	k     *sim.Kernel
	cli   *host.Host
	srv   *host.Host
	store *Store
	s     *Server
}

func newBench(t *testing.T, objSize int, mod func(*Config), nicMod func(*rnic.Params)) *bench {
	t.Helper()
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), 7)
	np := rnic.DefaultParams()
	if nicMod != nil {
		nicMod(&np)
	}
	cli := host.New(k, "cli", net, host.DefaultParams(), pmem.DefaultParams(), np)
	srv := host.New(k, "srv", net, host.DefaultParams(), pmem.DefaultParams(), np)
	store, err := NewStore(srv, 128, objSize)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if mod != nil {
		mod(&cfg)
	}
	return &bench{k: k, cli: cli, srv: srv, store: store, s: NewServer(srv, store, cfg)}
}

func (b *bench) client(kind Kind) Client {
	cfg := b.s.Cfg
	return New(kind, b.cli, b.s, cfg)
}

// run drives fn in a client proc and runs the sim to completion. A driver
// that never finishes (a deadlocked protocol) fails the test.
func (b *bench) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	completed := false
	b.k.Go("driver", func(p *sim.Proc) {
		fn(p)
		completed = true
	})
	b.k.Run()
	if !completed {
		t.Fatal("driver blocked forever: protocol deadlock")
	}
}

func allKinds() []Kind {
	out := append([]Kind{}, Kinds...)
	return append(out, Herd, LITE)
}

func TestAllSystemsWriteReadRoundTrip(t *testing.T) {
	for _, kind := range allKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			b := newBench(t, 256, nil, nil)
			c := b.client(kind)
			payload := bytes.Repeat([]byte{0x5A}, 256)
			copy(payload, []byte("object-42"))
			b.run(t, func(p *sim.Proc) {
				wr, err := c.Call(p, &Request{Op: OpWrite, Key: 42, Size: 256, Payload: payload})
				if err != nil {
					t.Error(err)
					return
				}
				if wr.ReadyAt <= wr.IssuedAt {
					t.Error("write completed instantly")
				}
				// Wait for full processing before reading back.
				wr.Done.Wait(p)
				rd, err := c.Call(p, &Request{Op: OpRead, Key: 42, Size: 256, Payload: payload})
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(rd.Data, payload) {
					t.Errorf("read back %d bytes, mismatch", len(rd.Data))
				}
			})
		})
	}
}

func TestDurableWriteReturnsBeforeProcessing(t *testing.T) {
	for _, kind := range DurableKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			b := newBench(t, 1024, func(c *Config) { c.ProcessingTime = 100 * time.Microsecond }, nil)
			c := b.client(kind)
			b.run(t, func(p *sim.Proc) {
				r, err := c.Call(p, &Request{Op: OpWrite, Key: 1, Size: 1024})
				if err != nil {
					t.Error(err)
					return
				}
				doneAt := r.Done.Wait(p)
				if doneAt < r.ReadyAt.Add(50*time.Microsecond) {
					t.Errorf("processing (%v) should lag persistence (%v) by ~100us", doneAt, r.ReadyAt)
				}
				if r.DurableAt == 0 {
					t.Error("durable RPC did not report durability")
				}
			})
		})
	}
}

func TestTraditionalWriteWaitsForProcessing(t *testing.T) {
	b := newBench(t, 1024, func(c *Config) { c.ProcessingTime = 100 * time.Microsecond }, nil)
	c := b.client(FaRM)
	b.run(t, func(p *sim.Proc) {
		r, _ := c.Call(p, &Request{Op: OpWrite, Key: 1, Size: 1024})
		if r.ReadyAt.Sub(r.IssuedAt) < 100*time.Microsecond {
			t.Errorf("FaRM write returned in %v, before the 100us processing", r.ReadyAt.Sub(r.IssuedAt))
		}
	})
}

func TestDurableWriteIsDurableAtReady(t *testing.T) {
	for _, kind := range DurableKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			b := newBench(t, 512, nil, nil)
			c := b.client(kind).(*durableClient)
			payload := bytes.Repeat([]byte{0xAA}, 512)
			b.run(t, func(p *sim.Proc) {
				r, err := c.Call(p, &Request{Op: OpWrite, Key: 7, Size: 512, Payload: payload})
				if err != nil {
					t.Error(err)
					return
				}
				// At ReadyAt (== now), the request must be durable in the
				// redo log — either still live (header durable in PM) or,
				// if the fast server already processed it, consumed.
				if c.Log().Appends != 1 {
					t.Fatalf("appends = %d", c.Log().Appends)
				}
				// A fresh ring's first entry follows the log's 16-byte
				// control area.
				if c.Log().Outstanding() == 1 {
					img := b.srv.PM.ReadBytes(c.Log().Base()+16, 16)
					if img[0] == 0 {
						t.Error("log entry header not durable at persist-ack")
					}
				} else if c.Log().Consumes != 1 {
					t.Error("entry neither live nor consumed at persist-ack")
				}
				_ = r
			})
		})
	}
}

func TestDurableThroughputBeatsTraditionalHeavyLoad(t *testing.T) {
	measure := func(kind Kind) float64 {
		b := newBench(t, 1024, func(c *Config) {
			c.ProcessingTime = 100 * time.Microsecond
			c.Workers = 2
		}, nil)
		c := b.client(kind)
		const ops = 200
		var elapsed time.Duration
		b.run(t, func(p *sim.Proc) {
			start := p.Now()
			for i := 0; i < ops; i++ {
				if _, err := c.Call(p, &Request{Op: OpWrite, Key: uint64(i % 64), Size: 1024}); err != nil {
					t.Fatal(err)
				}
			}
			elapsed = p.Now().Sub(start)
		})
		return float64(ops) / elapsed.Seconds()
	}
	farm := measure(FaRM)
	wflush := measure(WFlushRPC)
	if wflush < farm*1.3 {
		t.Fatalf("WFlush-RPC (%.0f ops/s) should beat FaRM (%.0f ops/s) by >30%% under heavy load", wflush, farm)
	}
}

// FaSST's UD transport has no segmentation, so any call whose request or
// response frame exceeds the MTU is refused with an error — never a panic
// in the NIC on either side.
func TestFaSSTMTUCap(t *testing.T) {
	b := newBench(t, 8192, nil, nil)
	c := b.client(FaSST)
	small := bytes.Repeat([]byte{0x6B}, 1024)
	writes := func(n int) []*Request {
		reqs := make([]*Request, n)
		for i := range reqs {
			reqs[i] = &Request{Op: OpWrite, Key: uint64(i), Size: 1024, Payload: small}
		}
		return reqs
	}
	b.run(t, func(p *sim.Proc) {
		for _, tc := range []struct {
			name string
			req  *Request
		}{
			{"8KB write", &Request{Op: OpWrite, Key: 1, Size: 8192}},
			{"8KB read", &Request{Op: OpRead, Key: 1, Size: 8192, Payload: []byte{}}},
			{"8-object 1KB scan", &Request{Op: OpScan, Key: 1, Size: 1024, ScanLen: 8, Payload: []byte{}}},
		} {
			if _, err := c.Call(p, tc.req); err == nil {
				t.Errorf("FaSST accepted an %s over UD", tc.name)
			}
		}
		w, err := c.Call(p, &Request{Op: OpWrite, Key: 1, Size: 1024, Payload: small})
		if err != nil {
			t.Errorf("FaSST rejected a 1KB write: %v", err)
			return
		}
		w.Done.Wait(p)
		r, err := c.Call(p, &Request{Op: OpRead, Key: 1, Size: 1024, Payload: []byte{}})
		if err != nil {
			t.Errorf("FaSST rejected a 1KB read: %v", err)
		} else if !bytes.Equal(r.Data, small) {
			t.Errorf("1KB read returned %d bytes, mismatch", len(r.Data))
		}
		bc := c.(BatchClient)
		if _, err := bc.CallBatch(p, writes(8)); err == nil {
			t.Error("FaSST accepted a batch of eight 1KB writes over UD")
		}
		if _, err := bc.CallBatch(p, writes(2)); err != nil {
			t.Errorf("FaSST rejected a batch that fits the MTU: %v", err)
		}
	})
}

func TestBatchingAmortizes(t *testing.T) {
	for _, kind := range []Kind{DaRPC, ScaleRPC, WFlushRPC, SFlushRPC, WRFlushRPC, SRFlushRPC} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			mkReqs := func() []*Request {
				reqs := make([]*Request, 8)
				for i := range reqs {
					reqs[i] = &Request{Op: OpWrite, Key: uint64(i), Size: 1024}
				}
				return reqs
			}
			// Batched.
			b1 := newBench(t, 1024, nil, nil)
			c1 := b1.client(kind).(BatchClient)
			var batched time.Duration
			b1.run(t, func(p *sim.Proc) {
				start := p.Now()
				for r := 0; r < 10; r++ {
					if _, err := c1.CallBatch(p, mkReqs()); err != nil {
						t.Fatal(err)
					}
				}
				batched = p.Now().Sub(start)
			})
			// Unbatched.
			b2 := newBench(t, 1024, nil, nil)
			c2 := b2.client(kind)
			var single time.Duration
			b2.run(t, func(p *sim.Proc) {
				start := p.Now()
				for r := 0; r < 10; r++ {
					for _, req := range mkReqs() {
						if _, err := c2.Call(p, req); err != nil {
							t.Fatal(err)
						}
					}
				}
				single = p.Now().Sub(start)
			})
			if batched >= single {
				t.Errorf("batching did not help: batched=%v single=%v", batched, single)
			}
		})
	}
}

func TestPipelinedDurableWritesStayOrdered(t *testing.T) {
	// Issue many writes back-to-back (each returning at persist-ack);
	// the server must process and consume all of them.
	b := newBench(t, 128, nil, nil)
	c := b.client(WFlushRPC).(*durableClient)
	const ops = 64
	b.run(t, func(p *sim.Proc) {
		var last *Response
		for i := 0; i < ops; i++ {
			r, err := c.Call(p, &Request{Op: OpWrite, Key: uint64(i), Size: 128})
			if err != nil {
				t.Fatal(err)
			}
			last = r
		}
		last.Done.Wait(p)
	})
	// Give the remaining responses time to drain.
	b.k.Run()
	if got := c.Log().Outstanding(); got != 0 {
		t.Fatalf("%d log entries never consumed", got)
	}
	if b.s.Handled != ops {
		t.Fatalf("server handled %d of %d", b.s.Handled, ops)
	}
}

func TestThrottleOnSmallRing(t *testing.T) {
	// A tiny log ring forces the §4.2 back-pressure path; the client must
	// make progress anyway.
	b := newBench(t, 128, func(c *Config) {
		c.LogBytes = 4096
		c.ThrottleOutstanding = 4
	}, nil)
	c := b.client(WFlushRPC)
	b.run(t, func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			if _, err := c.Call(p, &Request{Op: OpWrite, Key: uint64(i % 8), Size: 128}); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestScaleRPCWarmupInterleaving(t *testing.T) {
	b := newBench(t, 256, func(c *Config) { c.ScaleRPCProcessPhases = 5 }, nil)
	c := b.client(ScaleRPC)
	var latencies []time.Duration
	b.run(t, func(p *sim.Proc) {
		for i := 0; i < 12; i++ {
			r, err := c.Call(p, &Request{Op: OpWrite, Key: 1, Size: 256})
			if err != nil {
				t.Fatal(err)
			}
			latencies = append(latencies, r.ReadyAt.Sub(r.IssuedAt))
		}
	})
	// Calls 0 and 6 are warm-ups: strictly slower than their process-phase
	// neighbours (extra RTT for the server-side read).
	if latencies[0] <= latencies[1] || latencies[6] <= latencies[7] {
		t.Fatalf("warm-up calls not slower: %v", latencies)
	}
}

func TestRFPPollsUntilResult(t *testing.T) {
	b := newBench(t, 256, func(c *Config) { c.ProcessingTime = 50 * time.Microsecond }, nil)
	c := b.client(RFP)
	b.run(t, func(p *sim.Proc) {
		r, err := c.Call(p, &Request{Op: OpWrite, Key: 3, Size: 256})
		if err != nil {
			t.Fatal(err)
		}
		if r.ReadyAt.Sub(r.IssuedAt) < 50*time.Microsecond {
			t.Fatalf("RFP returned before processing: %v", r.ReadyAt.Sub(r.IssuedAt))
		}
	})
}

func TestSendBasedSlowerThanWriteBasedLargeObjects(t *testing.T) {
	// Lesson 1 of §5.2: one-sided beats two-sided for large payloads.
	lat := func(kind Kind) time.Duration {
		b := newBench(t, 65536, nil, nil)
		c := b.client(kind)
		var total time.Duration
		b.run(t, func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				r, err := c.Call(p, &Request{Op: OpWrite, Key: 1, Size: 65536})
				if err != nil {
					t.Fatal(err)
				}
				total += r.ReadyAt.Sub(r.IssuedAt)
			}
		})
		return total / 10
	}
	if w, s := lat(FaRM), lat(DaRPC); s <= w {
		t.Fatalf("DaRPC 64KB latency (%v) should exceed FaRM (%v)", s, w)
	}
}

func TestWFlushFasterThanWRFlushOnLatency(t *testing.T) {
	// Sender-initiated vs receiver-initiated: similar, but receiver-init
	// pays poll+notify where WFlush's NIC acks directly; under an idle
	// network WFlush should be at most slightly faster — both must be in
	// the same ballpark (lesson 3).
	lat := func(kind Kind) time.Duration {
		b := newBench(t, 1024, nil, nil)
		c := b.client(kind)
		var total time.Duration
		b.run(t, func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				r, err := c.Call(p, &Request{Op: OpWrite, Key: 1, Size: 1024})
				if err != nil {
					t.Fatal(err)
				}
				total += r.ReadyAt.Sub(r.IssuedAt)
			}
		})
		return total / 50
	}
	w, wr := lat(WFlushRPC), lat(WRFlushRPC)
	ratio := float64(wr) / float64(w)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("W-RFlush (%v) and WFlush (%v) should be comparable; ratio %.2f", wr, w, ratio)
	}
}

func TestDurableReadsReturnData(t *testing.T) {
	for _, kind := range DurableKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			b := newBench(t, 300, nil, nil)
			c := b.client(kind)
			payload := bytes.Repeat([]byte{9}, 300)
			b.run(t, func(p *sim.Proc) {
				w, err := c.Call(p, &Request{Op: OpWrite, Key: 5, Size: 300, Payload: payload})
				if err != nil {
					t.Fatal(err)
				}
				w.Done.Wait(p)
				r, err := c.Call(p, &Request{Op: OpRead, Key: 5, Size: 300, Payload: payload})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(r.Data, payload) {
					t.Errorf("durable read returned wrong data (%d bytes)", len(r.Data))
				}
			})
		})
	}
}

func TestNativeSFlushMode(t *testing.T) {
	b := newBench(t, 512, nil, func(p *rnic.Params) { p.EmulateFlush = false })
	c := b.client(SFlushRPC)
	payload := bytes.Repeat([]byte{3}, 512)
	b.run(t, func(p *sim.Proc) {
		r, err := c.Call(p, &Request{Op: OpWrite, Key: 2, Size: 512, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		r.Done.Wait(p)
		rd, err := c.Call(p, &Request{Op: OpRead, Key: 2, Size: 512, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rd.Data, payload) {
			t.Error("native SFlush round trip corrupted data")
		}
	})
}

// fillPMArena reserves every byte left in h's PM arena, so first-touch
// keys can no longer be homed.
func fillPMArena(h *host.Host) {
	for c := host.PMSize; c >= 64; c >>= 1 {
		for {
			if _, err := h.PMArena.Alloc(c); err != nil {
				break
			}
		}
	}
}

// TestScanOp checks scan contents on every kind: each 64 B slot of the
// reply holds its key's object, in key order. A scan crossing keys the PM
// arena cannot home returns only the homed objects, still in key order,
// and counts every skipped key in PMFull.
func TestScanOp(t *testing.T) {
	const size = 64
	obj := func(key uint64) []byte {
		b := bytes.Repeat([]byte{byte(key)}, size)
		copy(b, fmt.Sprintf("key-%d", key))
		return b
	}
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			b := newBench(t, size, nil, nil)
			c := b.client(kind)
			// Procs report with t.Error: FailNow must not run off the
			// test goroutine.
			scan := func(p *sim.Proc, from uint64, n int, want []uint64) {
				r, err := c.Call(p, &Request{Op: OpScan, Key: from, Size: size, ScanLen: n, Payload: []byte{1}})
				if err != nil {
					t.Errorf("scan %d+%d: %v", from, n, err)
					return
				}
				if len(r.Data) != len(want)*size {
					t.Errorf("scan %d+%d returned %d bytes, want %d", from, n, len(r.Data), len(want)*size)
					return
				}
				for i, key := range want {
					if got := r.Data[i*size : (i+1)*size]; !bytes.Equal(got, obj(key)) {
						t.Errorf("scan %d+%d slot %d = %q, want key %d's object", from, n, i, got[:8], key)
					}
				}
			}
			b.run(t, func(p *sim.Proc) {
				// Keys 0..127 are homed by NewStore; 130 is homed on first
				// touch, before the arena fills.
				for _, key := range []uint64{10, 11, 12, 13, 126, 127, 130} {
					w, err := c.Call(p, &Request{Op: OpWrite, Key: key, Size: size, Payload: obj(key)})
					if err != nil {
						t.Errorf("write key %d: %v", key, err)
						return
					}
					w.Done.Wait(p)
				}
				scan(p, 10, 4, []uint64{10, 11, 12, 13})

				fillPMArena(b.srv)
				full := b.store.PMFull
				scan(p, 126, 8, []uint64{126, 127, 130})
				if skipped := b.store.PMFull - full; skipped != 5 {
					t.Errorf("PMFull counted %d skipped keys, want 5 (128, 129, 131, 132, 133)", skipped)
				}
			})
		})
	}
}

// TestAllSystemsAllModes runs the write/read round trip across the model's
// mode matrix: emulated vs native primitives, DDIO off vs on. Every system
// must stay correct in every mode.
func TestAllSystemsAllModes(t *testing.T) {
	for _, native := range []bool{false, true} {
		for _, ddio := range []bool{false, true} {
			for _, kind := range allKinds() {
				kind, native, ddio := kind, native, ddio
				t.Run(fmt.Sprintf("%v/native=%v/ddio=%v", kind, native, ddio), func(t *testing.T) {
					b := newBench(t, 256, nil, func(p *rnic.Params) {
						p.EmulateFlush = !native
						p.DDIO = ddio
					})
					c := b.client(kind)
					payload := bytes.Repeat([]byte{0x3C}, 256)
					b.run(t, func(p *sim.Proc) {
						w, err := c.Call(p, &Request{Op: OpWrite, Key: 11, Size: 256, Payload: payload})
						if err != nil {
							t.Error(err)
							return
						}
						w.Done.Wait(p)
						rd, err := c.Call(p, &Request{Op: OpRead, Key: 11, Size: 256, Payload: []byte{}})
						if err != nil {
							t.Error(err)
							return
						}
						if !bytes.Equal(rd.Data, payload) {
							t.Errorf("round trip mismatch (%d bytes back)", len(rd.Data))
						}
					})
				})
			}
		}
	}
}

// A read-only batch must travel as opBatchRO: no flush acknowledgement, no
// redo-log entry image persisted — only the ctrl words move (§5.5). A batch
// holding even one write must engage the full durability machinery.
func TestBatchMutatingDerivedFromContents(t *testing.T) {
	for _, kind := range DurableKinds {
		kind := kind
		t.Run(kind.String()+"/read-only", func(t *testing.T) {
			// Native flush mode so the flush-ack counter is live (the
			// default emulates Flush with a read-after-write).
			b := newBench(t, 256, nil, func(p *rnic.Params) { p.EmulateFlush = false })
			c := b.client(kind).(BatchClient)
			b.run(t, func(p *sim.Proc) {
				// Populate so the batched reads hit real objects.
				w, err := c.Call(p, &Request{Op: OpWrite, Key: 3, Size: 256, Payload: bytes.Repeat([]byte{0x11}, 256)})
				if err != nil {
					t.Fatal(err)
				}
				w.Done.Wait(p)
				acksBefore := b.srv.NIC.FlushAcks
				persistBefore := b.srv.PM.PersistBytes
				reqs := make([]*Request, 8)
				for i := range reqs {
					reqs[i] = &Request{Op: OpRead, Key: 3, Size: 256}
				}
				rs, err := c.CallBatch(p, reqs)
				if err != nil {
					t.Fatal(err)
				}
				rs[0].Done.Wait(p)
				if got := b.srv.NIC.FlushAcks - acksBefore; got != 0 {
					t.Errorf("read-only batch triggered %d flush acks", got)
				}
				// The frame (8 reads x 32B headers) must never reach PM;
				// at most the log's 16B of ctrl words persist on consume.
				frame, hasWrite := makeBatchFrame(reqs)
				if hasWrite {
					t.Fatal("all-read batch classified as mutating")
				}
				if frame.Op != opBatchRO {
					t.Fatalf("all-read batch framed as %d", frame.Op)
				}
				if delta := b.srv.PM.PersistBytes - persistBefore; delta >= int64(reqWireBytes(frame)) {
					t.Errorf("read-only batch persisted %d bytes to PM", delta)
				}
				if b.s.Store.Reads < 8 {
					t.Errorf("only %d constituent reads applied", b.s.Store.Reads)
				}
			})
		})
		t.Run(kind.String()+"/mutating", func(t *testing.T) {
			b := newBench(t, 256, nil, func(p *rnic.Params) { p.EmulateFlush = false })
			c := b.client(kind).(BatchClient)
			b.run(t, func(p *sim.Proc) {
				acksBefore := b.srv.NIC.FlushAcks
				reqs := make([]*Request, 8)
				payloads := make([][]byte, 8)
				for i := range reqs {
					payloads[i] = bytes.Repeat([]byte{byte(0x20 + i)}, 256)
					reqs[i] = &Request{Op: OpWrite, Key: uint64(10 + i), Size: 256, Payload: payloads[i]}
				}
				rs, err := c.CallBatch(p, reqs)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rs {
					if r.DurableAt == 0 {
						t.Fatal("mutating batch reported no durability")
					}
				}
				switch kind {
				case WFlushRPC, SFlushRPC:
					if b.srv.NIC.FlushAcks == acksBefore {
						t.Error("mutating batch produced no flush ack")
					}
				}
				rs[0].Done.Wait(p)
				for i, want := range payloads {
					rd, err := c.Call(p, &Request{Op: OpRead, Key: uint64(10 + i), Size: 256, Payload: []byte{}})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(rd.Data, want) {
						t.Errorf("constituent write %d not applied", i)
					}
				}
			})
		})
	}
}

// The batch frame body round-trips through decodeBatch losslessly — the
// recovery path depends on it (the volatile stash dies with the client).
func TestBatchFrameRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpWrite, Key: 5, Size: 64, Payload: bytes.Repeat([]byte{0xA5}, 64)},
		{Op: OpRead, Key: 9, Size: 128},
		{Op: OpWrite, Key: 6, Size: 32, Payload: bytes.Repeat([]byte{0x5A}, 32)},
	}
	frame, hasWrite := makeBatchFrame(reqs)
	if !hasWrite || frame.Op != opBatch {
		t.Fatalf("frame op=%d hasWrite=%v", frame.Op, hasWrite)
	}
	got := decodeBatch(frame.Payload)
	if len(got) != len(reqs) {
		t.Fatalf("decoded %d of %d requests", len(got), len(reqs))
	}
	for i, r := range got {
		want := reqs[i]
		if r.Op != want.Op || r.Key != want.Key || r.Size != want.Size {
			t.Errorf("req %d header mismatch: %+v vs %+v", i, r, want)
		}
		if want.Op == OpWrite && !bytes.Equal(r.Payload, want.Payload) {
			t.Errorf("req %d payload mismatch", i)
		}
	}
}
