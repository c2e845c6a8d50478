package rnic

import (
	"bytes"
	"testing"
	"time"

	"prdma/internal/cache"
	"prdma/internal/dram"
	"prdma/internal/fabric"
	"prdma/internal/pmem"
	"prdma/internal/sim"
)

// rig is a two-host test cluster.
type rig struct {
	k        *sim.Kernel
	net      *fabric.Network
	cn, sn   *NIC
	cpm, spm *pmem.Device
	sllc     *cache.LLC
	sdram    *dram.Memory
}

const (
	pmBase   = int64(0)
	pmLen    = int64(1 << 26)
	dramBase = int64(1 << 30)
	dramLen  = int64(1 << 26)
)

func newRig(mod func(*Params)) *rig {
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), 1)
	p := DefaultParams()
	if mod != nil {
		mod(&p)
	}
	r := &rig{k: k, net: net}
	r.cpm = pmem.New(k, pmem.DefaultParams())
	r.spm = pmem.New(k, pmem.DefaultParams())
	cllc := cache.New(k, r.cpm)
	r.sllc = cache.New(k, r.spm)
	cdram := dram.New()
	r.sdram = dram.New()
	r.cn = New(k, "client", net, r.cpm, cllc, cdram, p)
	r.sn = New(k, "server", net, r.spm, r.sllc, r.sdram, p)
	for _, n := range []*NIC{r.cn, r.sn} {
		n.RegisterMR(pmBase, pmLen, MemPM)
		n.RegisterMR(dramBase, dramLen, MemDRAM)
	}
	return r
}

func (r *rig) connect(t Transport) (cq, sq *QP) {
	cq = r.cn.CreateQP(t)
	sq = r.sn.CreateQP(t)
	Connect(cq, sq)
	return cq, sq
}

func TestWriteAckBeforeDurable(t *testing.T) {
	r := newRig(nil)
	cq, sq := r.connect(RC)
	data := bytes.Repeat([]byte{0xEE}, 4096)
	var ackAt sim.Time
	r.k.Go("c", func(p *sim.Proc) {
		ackAt = cq.WriteAsync(100, len(data), data).Wait(p)
		// At ACK time the data must NOT yet be durable: that is the
		// T_A < T_B gap the paper is about.
		if got := r.spm.ReadBytes(100, len(data)); bytes.Equal(got, data) {
			t.Error("data durable already at ACK time")
		}
	})
	r.k.Run()
	if ackAt == 0 {
		t.Fatal("no ack")
	}
	if got := r.spm.ReadBytes(100, len(data)); !bytes.Equal(got, data) {
		t.Fatal("data never became durable")
	}
	_ = sq
}

func TestWriteFlushDurableAtCompletion(t *testing.T) {
	for _, emulate := range []bool{true, false} {
		r := newRig(func(p *Params) { p.EmulateFlush = emulate })
		cq, _ := r.connect(RC)
		data := bytes.Repeat([]byte{0xAB}, 8192)
		r.k.Go("c", func(p *sim.Proc) {
			cq.WriteFlush(p, 4096, len(data), data)
			if got := r.spm.ReadBytes(4096, len(data)); !bytes.Equal(got, data) {
				t.Errorf("emulate=%v: data not durable at WFlush completion", emulate)
			}
		})
		r.k.Run()
	}
}

func TestWriteFlushSlowerThanWrite(t *testing.T) {
	r := newRig(nil)
	cq, _ := r.connect(RC)
	var ack, durable sim.Time
	r.k.Go("c", func(p *sim.Proc) {
		ack = cq.WriteAsync(0, 4096, nil).Wait(p)
	})
	r.k.Run()

	r2 := newRig(nil)
	cq2, _ := r2.connect(RC)
	r2.k.Go("c", func(p *sim.Proc) {
		durable = cq2.WriteFlush(p, 0, 4096, nil)
	})
	r2.k.Run()
	if durable <= ack {
		t.Fatalf("WFlush completion (%v) should be later than plain ACK (%v)", durable, ack)
	}
}

func TestNativeFlushFasterThanEmulated(t *testing.T) {
	measure := func(emulate bool) sim.Time {
		r := newRig(func(p *Params) { p.EmulateFlush = emulate })
		cq, _ := r.connect(RC)
		var done sim.Time
		r.k.Go("c", func(p *sim.Proc) { done = cq.WriteFlush(p, 0, 65536, nil) })
		r.k.Run()
		return done
	}
	em, nat := measure(true), measure(false)
	if nat >= em {
		t.Fatalf("native flush (%v) should beat read-after-write emulation (%v)", nat, em)
	}
}

func TestCrashLosesStagedWrite(t *testing.T) {
	r := newRig(nil)
	cq, _ := r.connect(RC)
	data := bytes.Repeat([]byte{0x77}, 65536)
	acked := false
	r.k.Go("c", func(p *sim.Proc) {
		cq.WriteAsync(200, len(data), data).Then(func(sim.Time) { acked = true })
	})
	// Crash the server just after the ACK (generated at ~14us for a 64 KiB
	// transfer) but before the DMA+persist completes (~50us).
	r.k.After(20*time.Microsecond, func() {
		r.sn.Crash()
		r.spm.Crash()
		r.sllc.Crash()
		r.sdram.Crash()
	})
	r.k.Run()
	if !acked {
		t.Fatal("expected the RC ACK to arrive before the crash")
	}
	if got := r.spm.ReadBytes(200, len(data)); bytes.Equal(got, data) {
		t.Fatal("acked-but-unflushed data survived the crash: T_A/T_B gap not modelled")
	}
}

func TestSendRecvDelivery(t *testing.T) {
	r := newRig(nil)
	cq, sq := r.connect(RC)
	sq.PostRecv(dramBase, 4096)
	payload := []byte("rpc request payload")
	var rcv Recv
	r.k.Go("server", func(p *sim.Proc) { rcv = sq.RecvCQ.Pop(p) })
	r.k.Go("client", func(p *sim.Proc) { cq.SendAsync(len(payload), payload).Wait(p) })
	r.k.Run()
	if !bytes.Equal(rcv.Data, payload) || rcv.N != len(payload) {
		t.Fatalf("recv = %+v", rcv)
	}
	if rcv.Durable != 0 {
		t.Fatal("DRAM recv buffer must not be durable")
	}
	if !bytes.Equal(r.sdram.Read(dramBase, len(payload)), payload) {
		t.Fatal("payload not in DRAM recv buffer")
	}
}

// TestWriteOnlyDRAMKeepsNoCopy pins what the NIC stores in a DRAM region
// that peers may write but not read: a write, a write-imm and a send each
// hand their bytes to software in the completion, and DRAM keeps none of
// them, since no peer can read them back. A read of the region faults the
// QP. TestSendRecvDelivery pins the full-access case, which must store.
func TestWriteOnlyDRAMKeepsNoCopy(t *testing.T) {
	r := newRig(nil)
	r.sn.RegisterMRProt(dramBase, 1<<20, MemDRAM, true, false)
	cq, sq := r.connect(RC)
	sq.PostRecv(dramBase+8192, 4096)
	write, imm, send := []byte("one-sided write"), []byte("write with imm"), []byte("two-sided send")
	var arr Arrival
	var immRecv, sendRecv Recv
	r.k.Go("server", func(p *sim.Proc) {
		arr = sq.Arrivals.Pop(p)
		immRecv = sq.RecvCQ.Pop(p)
		sendRecv = sq.RecvCQ.Pop(p)
	})
	r.k.Go("client", func(p *sim.Proc) {
		cq.WriteAsync(dramBase, len(write), write).Wait(p)
		cq.WriteImmAsync(dramBase+4096, len(imm), imm, 7).Wait(p)
		cq.SendAsync(len(send), send).Wait(p)
	})
	r.k.Run()
	if !bytes.Equal(arr.Data, write) || arr.Addr != dramBase {
		t.Fatalf("write arrival = %+v", arr)
	}
	if !bytes.Equal(immRecv.Data, imm) || !immRecv.IsImm || immRecv.Imm != 7 {
		t.Fatalf("write-imm completion = %+v", immRecv)
	}
	if !bytes.Equal(sendRecv.Data, send) || sendRecv.Addr != dramBase+8192 {
		t.Fatalf("send completion = %+v", sendRecv)
	}
	if n := r.sdram.Footprint(); n != 0 {
		t.Fatalf("write-only DRAM holds %d bytes, want 0", n)
	}

	r.k.Go("client", func(p *sim.Proc) {
		if _, ok := cq.ReadAsync(dramBase, make([]byte, 16)).WaitTimeout(p, 2*time.Millisecond); ok {
			t.Error("read of write-only DRAM completed")
		}
	})
	r.k.RunFor(10 * time.Millisecond) // short of the first retransmit
	if r.sn.AccessViolations != 1 {
		t.Fatalf("AccessViolations = %d, want 1", r.sn.AccessViolations)
	}
}

func TestSendBeforePostRecvIsHeld(t *testing.T) {
	r := newRig(nil)
	cq, sq := r.connect(RC)
	var rcv Recv
	r.k.Go("client", func(p *sim.Proc) { cq.SendAsync(64, nil).Wait(p) })
	r.k.After(time.Millisecond, func() { sq.PostRecv(dramBase, 4096) })
	r.k.Go("server", func(p *sim.Proc) { rcv = sq.RecvCQ.Pop(p) })
	r.k.Run()
	if rcv.N != 64 {
		t.Fatalf("held send not delivered: %+v", rcv)
	}
	if rcv.At < sim.Time(time.Millisecond) {
		t.Fatal("delivery before buffer was posted")
	}
}

func TestSendFlushNative(t *testing.T) {
	r := newRig(func(p *Params) { p.EmulateFlush = false })
	cq, sq := r.connect(RC)
	logCursor := int64(1 << 20)
	sq.FlushSink = func(n int) int64 {
		a := logCursor
		logCursor += int64(n)
		return a
	}
	sq.PostRecv(dramBase, 4096)
	payload := []byte("durable send payload")
	var rcv Recv
	var durableAt sim.Time
	r.k.Go("server", func(p *sim.Proc) { rcv = sq.RecvCQ.Pop(p) })
	r.k.Go("client", func(p *sim.Proc) {
		durableAt = cq.SendFlushAsync(len(payload), payload).Wait(p)
		if got := r.spm.ReadBytes(1<<20, len(payload)); !bytes.Equal(got, payload) {
			t.Error("payload not durable in log at SFlush completion")
		}
	})
	r.k.Run()
	if durableAt == 0 {
		t.Fatal("no SFlush completion")
	}
	if rcv.LogAddr != 1<<20 {
		t.Fatalf("recv LogAddr = %#x", rcv.LogAddr)
	}
	if rcv.Durable == 0 {
		t.Fatal("recv should carry durability time")
	}
}

func TestSendFlushEmulated(t *testing.T) {
	r := newRig(func(p *Params) { p.EmulateFlush = true })
	cq, sq := r.connect(RC)
	cq.FlushProbe = 1 << 20
	// Emulated SFlush: receive buffers live directly in PM.
	sq.PostRecv(1<<20, 4096)
	payload := []byte("emulated durable send")
	var durableAt sim.Time
	r.k.Go("server", func(p *sim.Proc) { sq.RecvCQ.Pop(p) })
	r.k.Go("client", func(p *sim.Proc) {
		durableAt = cq.SendFlushAsync(len(payload), payload).Wait(p)
		if got := r.spm.ReadBytes(1<<20, len(payload)); !bytes.Equal(got, payload) {
			t.Error("payload not durable at emulated SFlush completion")
		}
	})
	r.k.Run()
	if durableAt < sim.Time(7*time.Microsecond) {
		t.Fatalf("emulated SFlush must include the 7us lookup: %v", durableAt)
	}
}

func TestReadForcesFlushWithoutDDIO(t *testing.T) {
	r := newRig(nil)
	cq, _ := r.connect(RC)
	data := bytes.Repeat([]byte{0x42}, 65536)
	r.k.Go("c", func(p *sim.Proc) {
		cq.WriteAsync(0, len(data), data)
		got := cq.Read(p, 65535, make([]byte, 1))
		// The read drained the DMA: the byte it returns is durable.
		if got[0] != 0x42 {
			t.Errorf("read returned %v", got[0])
		}
		if r.spm.ReadBytes(65535, 1)[0] != 0x42 {
			t.Error("read completed before data was durable")
		}
	})
	r.k.Run()
}

func TestDDIODefeatsReadAfterWrite(t *testing.T) {
	r := newRig(func(p *Params) { p.DDIO = true })
	cq, _ := r.connect(RC)
	data := bytes.Repeat([]byte{0x99}, 4096)
	r.k.Go("c", func(p *sim.Proc) {
		cq.WriteAsync(0, len(data), data)
		got := cq.Read(p, 4095, make([]byte, 1))
		if got[0] != 0x99 {
			t.Errorf("read-after-write returned %v; DDIO should serve it from LLC", got[0])
		}
		// The check "passed" — but the data is NOT durable (§2.4).
		if r.spm.ReadBytes(4095, 1)[0] == 0x99 {
			t.Error("data durable under DDIO without a clflush")
		}
	})
	r.k.Run()
	// And a crash now loses it even though read-after-write "verified" it.
	r.sllc.Crash()
	if r.sllc.Read(0, 1)[0] == 0x99 {
		t.Fatal("volatile LLC data survived crash")
	}
}

func TestDDIOFlushFlaggedWriteBypassesCache(t *testing.T) {
	r := newRig(func(p *Params) { p.DDIO = true; p.EmulateFlush = false })
	cq, _ := r.connect(RC)
	data := bytes.Repeat([]byte{0x13}, 1024)
	r.k.Go("c", func(p *sim.Proc) {
		cq.WriteFlush(p, 0, len(data), data)
		if got := r.spm.ReadBytes(0, len(data)); !bytes.Equal(got, data) {
			t.Error("flush-flagged write not durable under DDIO (non-cacheable region)")
		}
	})
	r.k.Run()
}

func TestWriteImmRaisesRecvCompletion(t *testing.T) {
	r := newRig(nil)
	cq, sq := r.connect(RC)
	var rcv Recv
	r.k.Go("server", func(p *sim.Proc) { rcv = sq.RecvCQ.Pop(p) })
	r.k.Go("client", func(p *sim.Proc) { cq.WriteImmAsync(300, 128, nil, 0xDEAD).Wait(p) })
	r.k.Run()
	if rcv.Imm != 0xDEAD || !rcv.IsImm || rcv.Addr != 300 {
		t.Fatalf("recv = %+v", rcv)
	}
}

func TestArrivalsForPollingServer(t *testing.T) {
	r := newRig(nil)
	cq, sq := r.connect(RC)
	var arr Arrival
	r.k.Go("server", func(p *sim.Proc) { arr = sq.Arrivals.Pop(p) })
	r.k.Go("client", func(p *sim.Proc) { cq.WriteAsync(512, 256, nil).Wait(p) })
	r.k.Run()
	if arr.Addr != 512 || arr.N != 256 {
		t.Fatalf("arrival = %+v", arr)
	}
	if arr.Durable == 0 {
		t.Fatal("PM write arrival should carry durability time")
	}
}

func TestUCWriteCompletesLocally(t *testing.T) {
	r := newRig(nil)
	cq, _ := r.connect(UC)
	var done sim.Time
	r.k.Go("c", func(p *sim.Proc) { done = cq.WriteAsync(0, 1024, nil).Wait(p) })
	r.k.Run()
	// UC completion is local wire-out: earlier than any possible RTT.
	if done.Duration() >= r.net.Params.Propagation*2 {
		t.Fatalf("UC completion %v looks like it waited for an ACK", done)
	}
}

func TestUDMTUPanics(t *testing.T) {
	r := newRig(nil)
	cq, _ := r.connect(UD)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cq.SendAsync(UDMTU+1, nil)
}

func TestNotifyRoundTrip(t *testing.T) {
	r := newRig(nil)
	cq, sq := r.connect(RC)
	var at sim.Time
	r.k.Go("client", func(p *sim.Proc) {
		at = cq.ExpectNotify(7).Wait(p)
	})
	r.k.After(time.Microsecond, func() { sq.Notify(7) })
	r.k.Run()
	if at == 0 {
		t.Fatal("notify not delivered")
	}
}

func TestNotifyBeforeExpectBuffered(t *testing.T) {
	r := newRig(nil)
	cq, sq := r.connect(RC)
	sq.Notify(9)
	var ok bool
	r.k.GoAt(sim.Time(time.Millisecond), "client", func(p *sim.Proc) {
		_, ok = cq.ExpectNotify(9).WaitTimeout(p, time.Millisecond)
	})
	r.k.Run()
	if !ok {
		t.Fatal("early notify lost")
	}
}

func TestRetransmitDedup(t *testing.T) {
	r := newRig(nil)
	cq, sq := r.connect(RC)
	// Simulate a retransmission by posting the same seq twice.
	m := &wireMsg{Kind: wWrite, SrcQP: cq.ID, DstQP: sq.ID, Seq: 1, Addr: 0, N: 8, Data: []byte("12345678")}
	dup := *m
	cq.nic.post(cq.remoteNIC, m, 72)
	cq.nic.post(cq.remoteNIC, &dup, 72)
	r.k.Run()
	count := sq.Arrivals.Len()
	if count != 1 {
		t.Fatalf("duplicate write applied %d times", count)
	}
}

func TestOutOfOrderRequestDropped(t *testing.T) {
	// RC in-order execution: a request ahead of a loss-induced PSN gap is
	// dropped (the responder NAKs it) and executes only once the retransmit
	// fills the gap. Without this, a flush acknowledgement could cover a
	// hole in the redo log and recovery would truncate acknowledged entries.
	r := newRig(nil)
	cq, sq := r.connect(RC)
	w1 := &wireMsg{Kind: wWrite, SrcQP: cq.ID, DstQP: sq.ID, Seq: 1, Addr: 0, N: 8, Data: []byte("11111111")}
	w2 := &wireMsg{Kind: wWrite, SrcQP: cq.ID, DstQP: sq.ID, Seq: 2, Addr: 64, N: 8, Data: []byte("22222222")}
	w2b := *w2
	// Deliver seq 2 while seq 1 is still "lost": it must not execute.
	cq.nic.post(cq.remoteNIC, w2, 72)
	r.k.RunFor(time.Millisecond)
	if r.sn.OutOfOrderDrops != 1 {
		t.Fatalf("out-of-order write not dropped (drops=%d)", r.sn.OutOfOrderDrops)
	}
	// The retransmit fills the gap; both requests then execute in order.
	cq.nic.post(cq.remoteNIC, w1, 72)
	cq.nic.post(cq.remoteNIC, &w2b, 72)
	r.k.Run()
	count := sq.Arrivals.Len()
	if count != 2 {
		t.Fatalf("expected 2 arrivals after the gap filled, got %d", count)
	}
}

func TestStaleQPMessagesDropped(t *testing.T) {
	r := newRig(nil)
	cq, _ := r.connect(RC)
	r.sn.Crash()
	r.sn.Restart()
	r.sn.RegisterMR(pmBase, pmLen, MemPM)
	r.k.Go("c", func(p *sim.Proc) {
		_, ok := cq.WriteAsync(0, 64, nil).WaitTimeout(p, 10*time.Millisecond)
		if ok {
			t.Error("write to dead QP completed")
		}
	})
	r.k.Run()
	if r.sn.DroppedStale == 0 {
		t.Fatal("stale message not counted")
	}
}

func TestUnregisteredAddressPanics(t *testing.T) {
	r := newRig(nil)
	cq, _ := r.connect(RC)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.k.Go("c", func(p *sim.Proc) { cq.WriteAsync(1<<40, 64, nil).Wait(p) })
	r.k.Run()
}

func TestTransportMismatchConnectPanics(t *testing.T) {
	r := newRig(nil)
	a := r.cn.CreateQP(RC)
	b := r.sn.CreateQP(UD)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Connect(a, b)
}

func TestSendCostsMoreThanWriteAtReceiver(t *testing.T) {
	// Two-sided ops pay SendExtra at the receiver NIC; with equal payloads
	// a send RPC's one-way time exceeds a write's.
	r := newRig(nil)
	cq, sq := r.connect(RC)
	sq.PostRecv(dramBase, 65536)
	var sendVisible, writeVisible sim.Time
	r.k.Go("server", func(p *sim.Proc) {
		rcv := sq.RecvCQ.Pop(p)
		sendVisible = rcv.At
	})
	r.k.Go("client", func(p *sim.Proc) { cq.SendAsync(4096, nil) })
	r.k.Run()

	r2 := newRig(nil)
	cq2, sq2 := r2.connect(RC)
	r2.k.Go("server", func(p *sim.Proc) {
		arr := sq2.Arrivals.Pop(p)
		writeVisible = arr.At
	})
	r2.k.Go("client", func(p *sim.Proc) { cq2.WriteAsync(dramBase, 4096, nil) })
	r2.k.Run()
	if sendVisible <= writeVisible {
		t.Fatalf("send visible at %v, write at %v: SendExtra not charged", sendVisible, writeVisible)
	}
}

func TestRCRetransmissionOnLossyFabric(t *testing.T) {
	// 20% message loss, from a loss burst that never switches off: every RC
	// operation must still complete, via NIC retransmission, and the
	// receiver must apply each write exactly once.
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), 99)
	net.SetInjector(fabric.NewInjector(fabric.FaultSpec{
		Bursts: []fabric.BurstSpec{{PeriodUS: 1, LenUS: 1, DropProb: 0.2}},
	}, 99))
	p := DefaultParams()
	p.RetransmitInterval = 50 * time.Microsecond // shorter for test speed
	cpm := pmem.New(k, pmem.DefaultParams())
	spm := pmem.New(k, pmem.DefaultParams())
	cn := New(k, "c", net, cpm, cache.New(k, cpm), dram.New(), p)
	sn := New(k, "s", net, spm, cache.New(k, spm), dram.New(), p)
	for _, n := range []*NIC{cn, sn} {
		n.RegisterMR(pmBase, pmLen, MemPM)
		n.RegisterMR(dramBase, dramLen, MemDRAM)
	}
	cq := cn.CreateQP(RC)
	sq := sn.CreateQP(RC)
	Connect(cq, sq)

	const ops = 60
	completed := 0
	k.Go("driver", func(pr *sim.Proc) {
		for i := 0; i < ops; i++ {
			data := []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}
			cq.WriteFlush(pr, int64(i*64), len(data), data)
			completed++
		}
	})
	k.Run()
	if completed != ops {
		t.Fatalf("completed %d of %d despite retransmission", completed, ops)
	}
	if net.DroppedFault == 0 {
		t.Fatal("the loss burst dropped nothing")
	}
	if arrivals := sq.Arrivals.Len(); arrivals != ops {
		t.Fatalf("receiver applied %d arrivals, want exactly %d (dedup)", arrivals, ops)
	}
	if cn.Retransmits == 0 {
		t.Fatal("no retransmissions counted on a 20%-loss fabric")
	}
	// Every write durable.
	for i := 0; i < ops; i++ {
		if spm.ReadBytes(int64(i*64), 1)[0] != byte(i) {
			t.Fatalf("write %d not durable", i)
		}
	}
}

func TestRetransmitStopsWhenQPDies(t *testing.T) {
	k := sim.New()
	fp := fabric.DefaultParams()
	net := fabric.New(k, fp, 5)
	p := DefaultParams()
	p.RetransmitInterval = 100 * time.Microsecond
	cpm := pmem.New(k, pmem.DefaultParams())
	spm := pmem.New(k, pmem.DefaultParams())
	cn := New(k, "c", net, cpm, cache.New(k, cpm), dram.New(), p)
	sn := New(k, "s", net, spm, cache.New(k, spm), dram.New(), p)
	for _, n := range []*NIC{cn, sn} {
		n.RegisterMR(pmBase, pmLen, MemPM)
	}
	cq := cn.CreateQP(RC)
	sq := sn.CreateQP(RC)
	Connect(cq, sq)
	sn.Crash() // server gone: acks never come
	cq.WriteAsync(0, 64, nil)
	k.RunFor(time.Millisecond) // a few retransmit periods
	before := cn.Retransmits
	if before == 0 {
		t.Fatal("expected retransmissions against a dead server")
	}
	cn.Crash() // client QP dies: retransmission must stop
	k.RunFor(10 * time.Millisecond)
	if cn.Retransmits != before {
		t.Fatalf("retransmits continued after QP death: %d -> %d", before, cn.Retransmits)
	}
}

func TestMRProtectionBlocksWrites(t *testing.T) {
	r := newRig(nil)
	// Carve a read-only window out of the PM region.
	r.sn.RegisterMRProt(1<<20, 4096, MemPM, false, true)
	cq, _ := r.connect(RC)
	r.k.Go("c", func(p *sim.Proc) {
		// Read of the protected window is fine.
		cq.Read(p, 1<<20, make([]byte, 64))
		// Write must fault: the future never completes and the QP errors.
		_, ok := cq.WriteAsync(1<<20, 64, nil).WaitTimeout(p, 2*time.Millisecond)
		if ok {
			t.Error("write to read-only MR completed")
		}
	})
	r.k.Run()
	if r.sn.AccessViolations == 0 {
		t.Fatal("violation not counted")
	}
}

func TestMRProtectionBlocksReads(t *testing.T) {
	r := newRig(nil)
	r.sn.RegisterMRProt(1<<21, 4096, MemPM, true, false)
	cq, _ := r.connect(RC)
	r.k.Go("c", func(p *sim.Proc) {
		_, ok := cq.ReadAsync(1<<21, make([]byte, 64)).WaitTimeout(p, 2*time.Millisecond)
		if ok {
			t.Error("read of write-only MR completed")
		}
	})
	r.k.Run()
	if r.sn.AccessViolations == 0 {
		t.Fatal("violation not counted")
	}
}

func TestMRProtLaterRegistrationWins(t *testing.T) {
	r := newRig(nil)
	r.sn.RegisterMRProt(2<<20, 4096, MemPM, false, true)
	cq, _ := r.connect(RC)
	r.k.Go("c", func(p *sim.Proc) {
		// Outside the protected window, the original full-access MR rules.
		if _, ok := cq.WriteAsync((2<<20)+8192, 64, nil).WaitTimeout(p, 5*time.Millisecond); !ok {
			t.Error("write outside protected window blocked")
		}
	})
	r.k.Run()
}

func TestStringersAndAccessors(t *testing.T) {
	if RC.String() != "RC" || UC.String() != "UC" || UD.String() != "UD" {
		t.Fatal("Transport.String wrong")
	}
	if MemPM.String() != "pm" || MemDRAM.String() != "dram" {
		t.Fatal("MemKind.String wrong")
	}
	for k, want := range map[wireKind]string{
		wWrite: "write", wWriteImm: "write-imm", wSend: "send", wRead: "read",
		wReadResp: "read-resp", wAck: "ack", wFlushAck: "flush-ack", wNotify: "notify",
	} {
		if k.String() != want {
			t.Fatalf("wireKind %d = %q", k, k.String())
		}
	}
	r := newRig(nil)
	cq, sq := r.connect(RC)
	if cq.Dead() {
		t.Fatal("live QP reports dead")
	}
	r.cn.Crash()
	if !cq.Dead() {
		t.Fatal("crash did not kill QPs")
	}
	_ = sq
}

func TestSendFlushDuplicateReacked(t *testing.T) {
	// A retransmitted flush-flagged send must re-issue the flush ACK so a
	// lost ACK cannot wedge the sender.
	r := newRig(func(p *Params) { p.EmulateFlush = false })
	cq, sq := r.connect(RC)
	logCursor := int64(1 << 20)
	sq.FlushSink = func(n int) int64 {
		a := logCursor
		logCursor += 64
		return a
	}
	sq.PostRecv(dramBase, 4096)
	sq.PostRecv(dramBase+4096, 4096)
	m := &wireMsg{Kind: wSend, SrcQP: cq.ID, DstQP: sq.ID, Seq: 1, N: 8, Data: []byte("12345678"), Flush: true}
	dup := *m
	cq.nic.post(cq.remoteNIC, m, 72)
	r.k.RunFor(time.Millisecond)
	acksBefore := r.sn.FlushAcks
	cq.nic.post(cq.remoteNIC, &dup, 72)
	r.k.RunFor(time.Millisecond)
	if r.sn.FlushAcks <= acksBefore {
		t.Fatal("duplicate flush-flagged send not re-acked")
	}
}

func TestWriteFlushDuplicateReacked(t *testing.T) {
	r := newRig(func(p *Params) { p.EmulateFlush = false })
	cq, sq := r.connect(RC)
	m := &wireMsg{Kind: wWrite, SrcQP: cq.ID, DstQP: sq.ID, Seq: 1, Addr: 0, N: 8, Data: []byte("abcdefgh"), Flush: true}
	dup := *m
	cq.nic.post(cq.remoteNIC, m, 72)
	r.k.RunFor(time.Millisecond)
	acksBefore := r.sn.FlushAcks
	cq.nic.post(cq.remoteNIC, &dup, 72)
	r.k.RunFor(time.Millisecond)
	if r.sn.FlushAcks <= acksBefore {
		t.Fatal("duplicate flush-flagged write not re-acked")
	}
}

func TestDDIOSendToDRAMBuffer(t *testing.T) {
	// Sends to DRAM recv buffers are untouched by DDIO settings.
	r := newRig(func(p *Params) { p.DDIO = true })
	cq, sq := r.connect(RC)
	sq.PostRecv(dramBase, 4096)
	var rcv Recv
	r.k.Go("s", func(p *sim.Proc) { rcv = sq.RecvCQ.Pop(p) })
	r.k.Go("c", func(p *sim.Proc) { cq.SendAsync(32, nil).Wait(p) })
	r.k.Run()
	if rcv.N != 32 || rcv.Durable != 0 {
		t.Fatalf("rcv = %+v", rcv)
	}
}

func TestTraceHookFires(t *testing.T) {
	r := newRig(func(p *Params) { p.EmulateFlush = false })
	var events []string
	r.sn.Trace = func(cat, format string, args ...interface{}) {
		events = append(events, cat)
	}
	cq, _ := r.connect(RC)
	r.k.Go("c", func(p *sim.Proc) { cq.WriteFlush(p, 0, 64, nil) })
	r.k.Run()
	if len(events) == 0 {
		t.Fatal("trace hook never fired")
	}
}

// TestCalibrationRTT pins the model's small-operation round trips to the
// ConnectX-4 ballpark DESIGN.md §4 targets: a small RC write completes in
// a few microseconds, and a durable (flushed) small write lands under
// ~10us — the regime where the paper's Figs. 13/20 live.
func TestCalibrationRTT(t *testing.T) {
	r := newRig(nil)
	cq, _ := r.connect(RC)
	var ack, durable sim.Time
	r.k.Go("c", func(p *sim.Proc) {
		start := p.Now()
		cq.WriteAsync(0, 32, nil).Wait(p)
		ack = sim.Time(p.Now().Sub(start))
		start = p.Now()
		cq.WriteFlush(p, 64, 32, nil)
		durable = sim.Time(p.Now().Sub(start))
	})
	r.k.Run()
	if d := ack.Duration(); d < time.Microsecond || d > 6*time.Microsecond {
		t.Fatalf("small-write RTT %v outside the 1-6us ConnectX-4 ballpark", d)
	}
	if d := durable.Duration(); d < 2*time.Microsecond || d > 12*time.Microsecond {
		t.Fatalf("durable small write %v outside the 2-12us ballpark", d)
	}
}
