package bench

import (
	"fmt"
	"time"

	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// fig8Sizes are the paper's three object classes (§5.1): message-passing,
// KV stores, file systems.
var fig8Sizes = []int{32, 1024, 65536}

// Fig8 reproduces Fig. 8: micro-benchmark throughput (KOPS) of every RPC
// under heavy (100 µs processing) and light load, 1:1 read/write, zipfian.
func (o Options) Fig8() []Table {
	r := o.runner()
	var out []Table
	for _, heavy := range []bool{true, false} {
		title := "Fig 8(b): throughput, light load (KOPS)"
		var tweaks []tweak
		notes := "expect: durable RPCs 20-90% over same-primitive baselines at 64KB; moderate gains for small objects"
		if heavy {
			title = "Fig 8(a): throughput, heavy load (KOPS)"
			tweaks = append(tweaks, heavyLoad)
			notes = "expect: durable RPCs best everywhere; +58-85% (write kinds), +43-69% (send kinds)"
		}
		cells := mapCells(r, len(rpc.Kinds)*len(fig8Sizes), func(i int) string {
			kind := rpc.Kinds[i/len(fig8Sizes)]
			size := fig8Sizes[i%len(fig8Sizes)]
			if skip(kind, size) {
				return "-"
			}
			m := o.micro(kind, o.deploy(size, tweaks...), o.Ops, 0.5)
			return fmt.Sprintf("%.1f", m.KOPS())
		})
		t := Table{Title: title, Header: []string{"rpc", "32B", "1KB", "64KB"}, Notes: notes}
		for ki, kind := range rpc.Kinds {
			row := append([]string{kind.String()}, cells[ki*len(fig8Sizes):(ki+1)*len(fig8Sizes)]...)
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}
	return out
}

// Fig9 reproduces Fig. 9: 95th/99th percentile and average latency for 1 KB
// and 64 KB objects.
func (o Options) Fig9() []Table {
	r := o.runner()
	var out []Table
	for _, size := range []int{1024, 65536} {
		cells := mapCells(r, len(rpc.Kinds), func(i int) *microResult {
			kind := rpc.Kinds[i]
			if skip(kind, size) {
				return nil
			}
			m := o.micro(kind, o.deploy(size), o.Ops, 0.5)
			return &m
		})
		t := Table{
			Title:  fmt.Sprintf("Fig 9: latency, %s objects (us)", sizeLabel(size)),
			Header: []string{"rpc", "95th", "99th", "avg"},
			Notes:  "expect: W-RFlush/WFlush cut P99 ~49% (1KB) / ~24% (64KB) vs write-based RPCs; ~10% vs DaRPC for send-based",
		}
		for i, kind := range rpc.Kinds {
			m := cells[i]
			if m == nil {
				continue
			}
			t.Rows = append(t.Rows, []string{
				kind.String(),
				fmtUS(m.Lat.Percentile(95)),
				fmtUS(m.Lat.Percentile(99)),
				fmtUS(m.Lat.Mean()),
			})
		}
		out = append(out, t)
	}
	return out
}

// Fig13 reproduces Fig. 13: average latency across object sizes.
func (o Options) Fig13() Table {
	sizes := []int{64, 256, 1024, 4096, 16384}
	t := Table{
		Title:  "Fig 13: avg latency vs object size (us)",
		Header: []string{"rpc", "64B", "256B", "1KB", "4KB", "16KB"},
		Notes:  "expect: flat to 4KB, then steep growth; send-based RPCs most size-sensitive",
	}
	cells := mapCells(o.runner(), len(rpc.Kinds)*len(sizes), func(i int) string {
		kind := rpc.Kinds[i/len(sizes)]
		size := sizes[i%len(sizes)]
		if skip(kind, size) {
			return "-"
		}
		m := o.micro(kind, o.deploy(size), o.Ops, 0.5)
		return fmtUS(m.Lat.Mean())
	})
	for ki, kind := range rpc.Kinds {
		row := append([]string{kind.String()}, cells[ki*len(sizes):(ki+1)*len(sizes)]...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig14 reproduces Fig. 14: average latency under idle vs busy network.
func (o Options) Fig14() Table {
	return o.loadFigure(
		"Fig 14: avg latency vs RDMA network load (us)",
		"expect: receiver-initiated RFlush RPCs degrade least (fewer wire primitives); write RPCs more sensitive than send RPCs",
		busyNetwork,
	)
}

// Fig15 reproduces Fig. 15: average latency under idle vs busy receiver CPU.
func (o Options) Fig15() Table {
	return o.loadFigure(
		"Fig 15: avg latency vs receiver CPU load (us)",
		"expect: all RPCs degrade; one-sided RPCs suffer the largest relative slowdown",
		busyReceiver,
	)
}

// Fig16 reproduces Fig. 16: average latency under idle vs busy sender CPU.
func (o Options) Fig16() Table {
	return o.loadFigure(
		"Fig 16: avg latency vs sender CPU load (us)",
		"expect: every RPC degrades significantly — sender CPU is on every critical path",
		busySender,
	)
}

// loadFigure runs the idle/busy comparison shared by Figs. 14-16. Each
// (kind, load) pair is one runner cell.
func (o Options) loadFigure(title, notes string, busy tweak) Table {
	t := Table{Title: title, Header: []string{"rpc", "idle", "busy", "slowdown"}, Notes: notes}
	size := 4096
	cells := mapCells(o.runner(), len(rpc.Kinds)*2, func(i int) *microResult {
		kind := rpc.Kinds[i/2]
		if skip(kind, size) {
			return nil
		}
		var m microResult
		if i%2 == 0 {
			m = o.micro(kind, o.deploy(size), o.Ops, 0.5)
		} else {
			m = o.micro(kind, o.deploy(size, busy), o.Ops, 0.5)
		}
		return &m
	})
	for ki, kind := range rpc.Kinds {
		idle, loaded := cells[ki*2], cells[ki*2+1]
		if idle == nil {
			continue
		}
		t.Rows = append(t.Rows, []string{
			kind.String(),
			fmtUS(idle.Lat.Mean()),
			fmtUS(loaded.Lat.Mean()),
			fmt.Sprintf("%.2fx", float64(loaded.Lat.Mean())/float64(idle.Lat.Mean())),
		})
	}
	return t
}

// Fig17 reproduces Fig. 17: average latency with 10..50 concurrent senders.
func (o Options) Fig17() Table {
	counts := []int{10, 20, 30, 40, 50}
	t := Table{
		Title:  "Fig 17: avg latency vs concurrent senders (us)",
		Header: []string{"rpc", "10", "20", "30", "40", "50"},
		Notes:  "expect: traditional RPC latency grows with senders; durable RPCs stay near-flat (less remote CPU on the persist path)",
	}
	size := 1024
	cells := mapCells(o.runner(), len(rpc.Kinds)*len(counts), func(i int) string {
		kind := rpc.Kinds[i/len(counts)]
		if skip(kind, size) {
			return ""
		}
		n := counts[i%len(counts)]
		d := o.deploy(size, withSenders(n), workers(4))
		m := o.micro(kind, d, o.OpsPerSender*n, 0.5)
		return fmtUS(m.Lat.Mean())
	})
	for ki, kind := range rpc.Kinds {
		if skip(kind, size) {
			continue
		}
		row := append([]string{kind.String()}, cells[ki*len(counts):(ki+1)*len(counts)]...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig18 reproduces Fig. 18: average latency across read/write mixes.
func (o Options) Fig18() Table {
	mixes := []struct {
		label string
		frac  float64
	}{{"5%read+95%write", 0.05}, {"50%read+50%write", 0.5}, {"95%read+5%write", 0.95}}
	t := Table{
		Title:  "Fig 18: avg latency vs access pattern (us)",
		Header: []string{"rpc", mixes[0].label, mixes[1].label, mixes[2].label},
		Notes:  "expect: durable RPCs shine on write-heavy mixes (persist-ack early return); parity on read-heavy",
	}
	size := 4096
	cells := mapCells(o.runner(), len(rpc.Kinds)*len(mixes), func(i int) string {
		kind := rpc.Kinds[i/len(mixes)]
		if skip(kind, size) {
			return ""
		}
		m := o.micro(kind, o.deploy(size), o.Ops, mixes[i%len(mixes)].frac)
		return fmtUS(m.Lat.Mean())
	})
	for ki, kind := range rpc.Kinds {
		if skip(kind, size) {
			continue
		}
		row := append([]string{kind.String()}, cells[ki*len(mixes):(ki+1)*len(mixes)]...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig19 reproduces Fig. 19: total execution time vs batch size for the
// batching-capable systems.
func (o Options) Fig19() Table {
	batches := []int{1, 4, 8}
	kinds := []rpc.Kind{rpc.DaRPC, rpc.ScaleRPC, rpc.SRFlushRPC, rpc.SFlushRPC, rpc.WRFlushRPC, rpc.WFlushRPC}
	t := Table{
		Title:  "Fig 19: total time vs batch size (ms)",
		Header: []string{"rpc", "batch=1", "batch=4", "batch=8"},
		Notes:  "expect: batching helps write-based durable RPCs most; DaRPC gains little (send cost is size-sensitive)",
	}
	size := 1024
	cells := mapCells(o.runner(), len(kinds)*len(batches), func(i int) string {
		elapsed := o.batchRun(kinds[i/len(batches)], size, batches[i%len(batches)])
		return fmt.Sprintf("%.2f", elapsed.Seconds()*1e3)
	})
	for ki, kind := range kinds {
		row := append([]string{kind.String()}, cells[ki*len(batches):(ki+1)*len(batches)]...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// batchRun executes o.Ops writes grouped into batches of bs.
func (o Options) batchRun(kind rpc.Kind, size, bs int) time.Duration {
	d := o.deploy(size)
	c := d.mustBuild()
	client := rpc.New(kind, c.cli[0], c.engine, d.cfg)
	bc, _ := client.(rpc.BatchClient)
	var elapsed time.Duration
	c.k.Go("driver", func(p *sim.Proc) {
		start := p.Now()
		issued := 0
		for issued < o.Ops {
			if bs <= 1 || bc == nil {
				if _, err := client.Call(p, &rpc.Request{Op: rpc.OpWrite, Key: uint64(issued % d.objects), Size: size}); err != nil {
					panic(err)
				}
				issued++
				continue
			}
			reqs := make([]*rpc.Request, bs)
			for i := range reqs {
				reqs[i] = &rpc.Request{Op: rpc.OpWrite, Key: uint64((issued + i) % d.objects), Size: size}
			}
			if _, err := bc.CallBatch(p, reqs); err != nil {
				panic(err)
			}
			issued += bs
		}
		elapsed = p.Now().Sub(start)
	})
	c.k.Run()
	return elapsed
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
