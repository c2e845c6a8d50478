package main

import (
	"fmt"
	"time"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/redolog"
	"prdma/internal/rnic"
	"prdma/internal/rpc"
	"prdma/internal/sim"
	"prdma/internal/ycsb"
)

// rpcLoad runs each kind in turn on a fresh single-host deployment: one
// closed-loop sender over zipfian (0.99) keys.
type rpcLoad struct {
	kinds    []rpc.Kind
	ops      int // calls per kind per pass
	objSize  int
	keys     int
	readFrac float64
}

var smallWrite = rpcLoad{kinds: rpc.Kinds, ops: 6000, objSize: 64, keys: 10000, readFrac: 0.05}

// largeRead leaves out FaSST: its UD transport cannot carry 64 KB.
var largeRead = rpcLoad{kinds: withoutKind(rpc.Kinds, rpc.FaSST), ops: 2500, objSize: 64 << 10, keys: 10000, readFrac: 0.95}

func withoutKind(kinds []rpc.Kind, drop rpc.Kind) []rpc.Kind {
	var out []rpc.Kind
	for _, k := range kinds {
		if k != drop {
			out = append(out, k)
		}
	}
	return out
}

func (l rpcLoad) prepare(seed uint64, scale float64) (func(*tracer) *passResult, error) {
	l.ops = scaled(l.ops, scale)
	pt := newPatterns(seed, l.objSize)
	return func(tr *tracer) *passResult {
		res := &passResult{}
		drv := newClient(len(l.kinds), tr)
		for i, kind := range l.kinds {
			c := newClient(i, tr)
			res.clients = append(res.clients, c)
			l.runKind(seed, kind, pt, c, drv, res)
		}
		res.clients = append(res.clients, drv)
		res.checkDone()
		return res
	}, nil
}

// runKind builds one deployment, drives l.ops calls through it and folds
// its counters into res.
func (l rpcLoad) runKind(seed uint64, kind rpc.Kind, pt *patterns, c, drv *client, res *passResult) {
	h0 := time.Now()
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), seed)
	srvHost := host.New(k, "server", net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
	store, err := rpc.NewStore(srvHost, l.keys, l.objSize)
	if err != nil {
		c.fail(fmt.Errorf("%v: %w", kind, err))
		return
	}
	srv := rpc.NewServer(srvHost, store, rpc.DefaultConfig())
	cliHost := host.New(k, "client", net, host.DefaultParams(), pmem.DefaultParams(), rnic.DefaultParams())
	cl := rpc.New(kind, cliHost, srv, rpc.DefaultConfig())
	h1 := time.Now()
	res.setup += h1.Sub(h0)
	drv.span(drv.newID(), nameSetup, 0, h0, h1, 0, 0)

	k.Go("bench-client", func(p *sim.Proc) { l.drive(p, seed, kind, cl, pt, c) })
	t0 := time.Now()
	k.Run()
	res.busy += time.Since(t0)
	res.simElapsed += c.end.Duration()

	var cnt counters
	cnt[cEvents] = int64(k.Fired())
	cnt.network(net)
	cnt.hosts(srvHost, cliHost)
	if lg, ok := cl.(interface{ Log() *redolog.Log }); ok {
		cnt.logs(lg.Log())
	}
	cnt[cHandled] = srv.Handled
	res.cnt.add(&cnt)
	k.Shutdown()
}

// drive is the sender's closed loop. acked holds the last acknowledged
// version per key: with one sender no write is in flight when a read
// issues, so a read must return exactly that version, or an older one when
// the server's worker pool applies the read before an acked write.
func (l rpcLoad) drive(p *sim.Proc, seed uint64, kind rpc.Kind, cl rpc.Client, pt *patterns, c *client) {
	name := rpcName(kind)
	rng := sim.NewRand(seed ^ uint64(kind+1)*0x9e3779b97f4a7c15)
	zipf := ycsb.NewZipfian(rng.Fork(), int64(l.keys), 0.99)
	acked := make([]uint32, l.keys)
	payload := make([]byte, l.objSize)
	for n := 0; n < l.ops; n++ {
		key := uint64(zipf.Scrambled())
		if rng.Float64() < l.readFrac {
			// A non-nil empty payload asks the server for real contents.
			req := &rpc.Request{Op: rpc.OpRead, Key: key, Size: l.objSize, Payload: []byte{}}
			h0, s0 := time.Now(), p.Now()
			resp, err := cl.Call(p, req)
			if err != nil {
				c.fail(fmt.Errorf("%v read key %d: %w", kind, key, err))
				c.record(name, 0, h0, s0, p.Now(), outFailed)
				continue
			}
			c.record(name, 0, h0, resp.IssuedAt, resp.ReadyAt, c.checkRead(kind, pt, resp.Data, key, acked[key]))
			continue
		}
		ver := acked[key] + 1
		pt.fill(payload, key, ver)
		req := &rpc.Request{Op: rpc.OpWrite, Key: key, Size: l.objSize, Payload: payload}
		h0, s0 := time.Now(), p.Now()
		resp, err := cl.Call(p, req)
		if err != nil {
			c.fail(fmt.Errorf("%v write key %d: %w", kind, key, err))
			c.record(name, 0, h0, s0, p.Now(), outFailed)
			continue
		}
		acked[key] = ver
		c.record(name, 0, h0, resp.IssuedAt, resp.ReadyAt, outWrite|uint64(ver))
	}
	c.done = true
}

// checkRead classifies a read of key whose last acked write had version
// want, and returns the outcome to fingerprint.
func (c *client) checkRead(kind rpc.Kind, pt *patterns, data []byte, key uint64, want uint32) uint64 {
	if len(data) == 0 {
		c.unverified++
		return outUnverified
	}
	got, err := pt.check(data, key)
	switch {
	case err != nil:
		c.fail(fmt.Errorf("%v read: %w", kind, err))
		return outFailed
	case got > want:
		c.fail(fmt.Errorf("%v read key %d: version %d was never acked (last acked %d)", kind, key, got, want))
		return outFailed
	case got < want:
		c.stale++
	}
	return uint64(got)
}
