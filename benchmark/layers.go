package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"

	"prdma/internal/rpc"
)

// cpuLayers are the layers CPU time is charged to. Every simulator package
// the benchmark links is here (ycsb, graph and stats as workload_gen), so
// the shares of a profile sum to 100 %.
var cpuLayers = []string{
	"sim", "fabric", "rnic", "pmem", "cache", "dram", "host", "redolog", "rpc",
	"replicate", "cluster", "pmpool", "runtime_gc", "runtime_other", "workload_gen", "bench",
}

// perLayer derives the per-layer metrics from a traced run: t holds the
// traced passes, plain the untraced passes run between them.
func perLayer(t, plain *tally) []metric {
	ops := float64(t.ops)
	passes := float64(t.passes)
	var ms []metric
	add := func(name string, v float64, unit string, samples int64) {
		ms = append(ms, metric{name, v, unit, samples})
	}
	perOp := func(name string, c int, unit string) { add(name, float64(t.cnt[c])/ops, unit, t.ops) }
	perKop := func(name string, c int) { add(name, float64(t.cnt[c])/ops*1e3, "count/kop", t.ops) }
	perPass := func(name string, v int64) { add(name, float64(v)/passes, "count/pass", int64(t.passes)) }
	var cpuTotal int64
	for _, ns := range t.cpu {
		cpuTotal += ns
	}
	share := func(layer string) {
		v := 0.0
		if cpuTotal > 0 {
			v = 100 * float64(t.cpu[layer]) / float64(cpuTotal)
		}
		add(layer+".cpu_share", v, "%", cpuTotal)
	}
	hostP50 := func(name string, n opName) {
		v, count := percentile(t.hostLat(n), 50)
		add(name, v, "us", count)
	}
	simP99 := func(name string, n opName) {
		v, count := t.simPct(99, n)
		add(name, v, "us", count)
	}

	share("sim")
	perOp("sim.events_per_op", cEvents, "count/op")
	add("sim.events_per_s", float64(t.cnt[cEvents])/t.busy.Seconds(), "1/s", t.cnt[cEvents])
	perKop("sim.windows_per_kop", cWindows)
	perKop("sim.barriers_per_kop", cBarriers)
	perKop("sim.idle_skips_per_kop", cIdleSkips)
	perOp("sim.crossed_per_op", cCrossed, "count/op")

	share("fabric")
	perOp("fabric.msgs_per_op", cMsgs, "count/op")
	perOp("fabric.bytes_per_op", cBytes, "B/op")
	hitPct := 0.0
	if n := t.cnt[cSlabHits] + t.cnt[cSlabMisses]; n > 0 {
		hitPct = 100 * float64(t.cnt[cSlabHits]) / float64(n)
	}
	add("fabric.xfer_slab_hit_pct", hitPct, "%", t.cnt[cSlabHits]+t.cnt[cSlabMisses])

	share("rnic")
	perOp("rnic.staged_msgs_per_op", cStaged, "count/op")
	perOp("rnic.flush_acks_per_op", cFlushAcks, "count/op")
	perPass("rnic.retransmits", t.cnt[cRetransmits])

	share("pmem")
	perOp("pmem.persists_per_op", cPersists, "count/op")
	perOp("pmem.persist_bytes_per_op", cPersistBytes, "B/op")
	perOp("pmem.reads_per_op", cPMReads, "count/op")
	share("cache")
	perOp("cache.flushes_per_op", cFlushes, "count/op")
	share("dram")

	share("host")
	add("host.sw_us_per_op", float64(t.cnt[cSWNanos])/ops/1e3, "us/op", t.ops)

	share("redolog")
	perOp("redolog.appends_per_op", cAppends, "count/op")

	share("rpc")
	for _, k := range rpc.Kinds {
		hostP50("rpc."+k.String()+".host_us_p50", rpcName(k))
	}
	perOp("rpc.handled_per_op", cHandled, "count/op")
	perPass("rpc.stale_reads", t.stale)
	perPass("rpc.unverified_reads", t.unverified)

	share("replicate")
	share("cluster")
	hostP50("cluster.put_host_us_p50", namePut)
	hostP50("cluster.get_host_us_p50", nameGet)
	simP99("cluster.put_sim_us_p99", namePut)
	simP99("cluster.get_sim_us_p99", nameGet)

	share("pmpool")
	poolOps := []struct {
		op   string
		name opName
	}{{"alloc", nameAlloc}, {"write", nameWrite}, {"read", nameRead}, {"free", nameFree}}
	for _, o := range poolOps {
		hostP50("pmpool."+o.op+"_host_us_p50", o.name)
	}
	for _, o := range poolOps {
		simP99("pmpool."+o.op+"_sim_us_p99", o.name)
	}
	add("pmpool.shuffle_host_s", t.shuffleHost.Seconds()/passes, "s", int64(t.passes))
	perPass("pmpool.retries", t.cnt[cPoolRetries])
	perPass("pmpool.leaked", t.cnt[cLeaked])

	share("runtime_gc")
	share("runtime_other")
	plainOps, plainPasses := float64(plain.ops), float64(plain.passes)
	add("runtime.allocs_per_op", float64(plain.mallocs)/plainOps, "count/op", plain.ops)
	add("runtime.alloc_bytes_per_op", float64(plain.allocBytes)/plainOps, "B/op", plain.ops)
	add("runtime.gc_cycles", float64(plain.gcs)/plainPasses, "count/pass", int64(plain.passes))
	add("runtime.gc_pause_ms", float64(plain.gcPauseNs)/1e6/plainPasses, "ms/pass", int64(plain.passes))

	share("workload_gen")
	share("bench")
	overhead := (t.busy.Seconds()/ops)/(plain.busy.Seconds()/plainOps)*100 - 100
	add("trace.overhead_pct", overhead, "%", int64(t.passes))
	return ms
}

// layerOf charges a CPU sample to the innermost frame, leaf first, that
// belongs to a simulator layer or to this benchmark. Library and runtime
// frames are charged to that caller, so a memmove or an allocation made in
// rpc counts as rpc. A stack with no such frame is runtime work: garbage
// collection when a background GC worker runs it, else the rest of the
// runtime (the scheduler, timers, the profiler itself).
func layerOf(frames []string) string {
	for _, f := range frames {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") || strings.HasPrefix(f, "runtime.bgsweep") ||
			strings.HasPrefix(f, "runtime.bgscavenge") {
			return "runtime_gc"
		}
	}
	return "runtime_other"
}

// frameLayer returns the layer a function belongs to, or "" for library and
// runtime code. The benchmark's own functions are named main.* in its binary
// and prdma/benchmark.* in its test binary.
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "prdma/benchmark.") {
		return "bench"
	}
	const internal = "prdma/internal/"
	if !strings.HasPrefix(fn, internal) {
		return ""
	}
	pkg := fn[len(internal):]
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "ycsb", "graph", "stats":
		return "workload_gen"
	}
	return pkg
}

// cpuByLayer decodes a gzipped pprof CPU profile and adds each sample's CPU
// nanoseconds to the layer layerOf charges it to. It reads only the
// profile.proto fields it needs: samples, locations, functions, strings.
func cpuByLayer(data []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	top := pbuf{b: raw}
	for top.more() {
		num, wire := top.key()
		switch {
		case num == 2 && wire == 2: // Sample
			var s sample
			m := pbuf{b: top.bytes()}
			for m.more() {
				n, w := m.key()
				switch n {
				case 1:
					s.locs = m.uints(w, s.locs)
				case 2:
					s.vals = m.uints(w, s.vals)
				default:
					m.skip(w)
				}
			}
			top.err = m.err
			samples = append(samples, s)
		case num == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			m := pbuf{b: top.bytes()}
			for m.more() {
				n, w := m.key()
				switch {
				case n == 1 && w == 0:
					id = m.varint()
				case n == 4 && w == 2: // Line
					l := pbuf{b: m.bytes()}
					for l.more() {
						if ln, lw := l.key(); ln == 1 && lw == 0 {
							fns = append(fns, l.varint())
						} else {
							l.skip(lw)
						}
					}
					m.err = l.err
				default:
					m.skip(w)
				}
			}
			top.err = m.err
			locs[id] = fns
		case num == 5 && wire == 2: // Function
			var id, name uint64
			m := pbuf{b: top.bytes()}
			for m.more() {
				n, w := m.key()
				switch {
				case n == 1 && w == 0:
					id = m.varint()
				case n == 2 && w == 0:
					name = m.varint()
				default:
					m.skip(w)
				}
			}
			top.err = m.err
			funcs[id] = name
		case num == 6 && wire == 2: // string_table
			strs = append(strs, string(top.bytes()))
		default:
			top.skip(wire)
		}
	}
	if top.err != nil {
		return fmt.Errorf("cpu profile: %w", top.err)
	}
	var frames []string
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		frames = frames[:0]
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		// The last value is CPU nanoseconds (sample types: samples/count,
		// cpu/nanoseconds).
		into[layerOf(frames)] += int64(s.vals[len(s.vals)-1])
	}
	return nil
}

// pbuf reads protocol-buffer wire format.
type pbuf struct {
	b   []byte
	err error
}

var errTruncated = errors.New("truncated protobuf")

func (p *pbuf) more() bool { return p.err == nil && len(p.b) > 0 }

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = errTruncated
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("protobuf varint overflows 64 bits")
	return 0
}

// key reads a field key: its number and wire type.
func (p *pbuf) key() (int, int) {
	k := p.varint()
	return int(k >> 3), int(k & 7)
}

// bytes reads a length-delimited field.
func (p *pbuf) bytes() []byte {
	n := p.varint()
	if p.err != nil {
		return nil
	}
	if n > uint64(len(p.b)) {
		p.err = errTruncated
		return nil
	}
	b := p.b[:n]
	p.b = p.b[n:]
	return b
}

// uints appends a repeated varint field, packed (wire type 2) or not.
func (p *pbuf) uints(wire int, dst []uint64) []uint64 {
	if wire == 0 {
		return append(dst, p.varint())
	}
	if wire != 2 {
		p.skip(wire)
		return dst
	}
	m := pbuf{b: p.bytes()}
	for m.more() {
		dst = append(dst, m.varint())
	}
	if m.err != nil {
		p.err = m.err
	}
	return dst
}

func (p *pbuf) skip(wire int) {
	switch wire {
	case 0:
		p.varint()
	case 1:
		p.fixed(8)
	case 2:
		p.bytes()
	case 5:
		p.fixed(4)
	default:
		p.err = fmt.Errorf("unsupported protobuf wire type %d", wire)
	}
}

func (p *pbuf) fixed(n int) {
	if len(p.b) < n {
		p.err = errTruncated
		return
	}
	p.b = p.b[n:]
}
