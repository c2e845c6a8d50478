package bench

import (
	"fmt"
	"time"

	"prdma/internal/host"
	"prdma/internal/replicate"
	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// Fig7CaseStudy reproduces the §4.4.1 case study (Fig. 7(a)): Octopus made
// durable with the WFlush primitive, versus plain Octopus (whose write-imm
// reply only confirms processing) — write latency to durability.
func (o Options) Fig7CaseStudy() Table {
	t := Table{
		Title:  "Fig 7(a) case study: Octopus +/- WFlush, write avg latency (us)",
		Header: []string{"system", "1KB", "4KB", "64KB"},
		Notes:  "Octopus+WFlush guarantees persistence with no receiver CPU on the path: cheaper for large objects (DMA vs clwb persist), one extra read round for small ones",
	}
	sizes := []int{1024, 4096, 65536}
	variants := []bool{false, true}
	cells := mapCells(o.runner(), len(variants)*len(sizes), func(i int) string {
		return fmtUS(o.octopusCase(variants[i/len(sizes)], sizes[i%len(sizes)]))
	})
	for vi, durable := range variants {
		label := "Octopus"
		if durable {
			label = "Octopus+WFlush"
		}
		row := append([]string{label}, cells[vi*len(sizes):(vi+1)*len(sizes)]...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// octopusCase measures write latency for the case-study pair.
func (o Options) octopusCase(durable bool, size int) time.Duration {
	d := o.deploy(size)
	c := d.mustBuild()
	var client rpc.Client
	if durable {
		client = rpc.NewOctopusDurable(c.cli[0], c.engine, d.cfg)
	} else {
		client = rpc.NewOctopus(c.cli[0], c.engine, d.cfg)
	}
	var total time.Duration
	ops := o.Ops / 4
	if ops == 0 {
		ops = 1
	}
	c.k.Go("driver", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			r, err := client.Call(p, &rpc.Request{Op: rpc.OpWrite, Key: uint64(i % d.objects), Size: size})
			if err != nil {
				panic(err)
			}
			total += r.ReadyAt.Sub(r.IssuedAt)
		}
	})
	c.k.Run()
	return total / time.Duration(ops)
}

// Replication measures the §4.5 extension: replicated durable-write latency
// across replication factors and completion policies, with and without a
// straggler replica.
func (o Options) Replication() Table {
	t := Table{
		Title:  "Extension (§4.5): replicated durable writes, avg latency (us), 4KB",
		Header: []string{"config", "R=1", "R=2", "R=3", "R=5"},
		Notes:  "wait-all tracks the slowest replica; a quorum hides stragglers — the consistency/performance tradeoff §4.5 describes",
	}
	cases := []struct {
		label    string
		policy   replicate.Policy
		straggle bool
	}{
		{"all, uniform", replicate.WaitAll, false},
		{"quorum, uniform", replicate.WaitQuorum, false},
		{"all, 1 straggler", replicate.WaitAll, true},
		{"quorum, 1 straggler", replicate.WaitQuorum, true},
	}
	factors := []int{1, 2, 3, 5}
	// The last case row is the HyperLoop-style NIC-offloaded chain (native
	// primitives): hops serialize, but no client fan-out and zero replica
	// CPU. It shares the cell matrix: (case..., chain) x factors.
	cells := mapCells(o.runner(), (len(cases)+1)*len(factors), func(i int) string {
		ci, r := i/len(factors), factors[i%len(factors)]
		if ci == len(cases) {
			return fmtUS(o.chainWrite(r))
		}
		return fmtUS(o.replicatedWrite(cases[ci].policy, r, cases[ci].straggle))
	})
	for ci, cse := range cases {
		row := append([]string{cse.label}, cells[ci*len(factors):(ci+1)*len(factors)]...)
		t.Rows = append(t.Rows, row)
	}
	row := append([]string{"chain (NIC offload)"}, cells[len(cases)*len(factors):]...)
	t.Rows = append(t.Rows, row)
	return t
}

// chainWrite measures mean NIC-chain write latency (native flush mode).
func (o Options) chainWrite(replicas int) time.Duration {
	d := o.deploy(4096, nativeFlush)
	k := sim.New()
	net := newFabric(k, d)
	cli := newHost(k, "client-0", net, d.hostCli, d)
	var members []*host.Host
	for i := 0; i < replicas; i++ {
		members = append(members, newHost(k, fmt.Sprintf("replica-%d", i), net, d.hostSrv, d))
	}
	chain, err := replicate.NewChain(cli, members)
	if err != nil {
		panic(err)
	}
	var total time.Duration
	ops := o.Ops / 8
	if ops == 0 {
		ops = 1
	}
	k.Go("driver", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			start := p.Now()
			chain.Write(p, int64(i%d.objects)*4096, 4096, nil)
			total += p.Now().Sub(start)
		}
	})
	k.Run()
	return total / time.Duration(ops)
}

// replicatedWrite measures mean replicated-write latency.
func (o Options) replicatedWrite(policy replicate.Policy, replicas int, straggle bool) time.Duration {
	d := o.deploy(4096)
	k := sim.New()
	c := buildReplicaSet(k, d, replicas, straggle)
	rc, err := replicate.New(k, policy, c.clients)
	if err != nil {
		panic(err)
	}
	var total time.Duration
	ops := o.Ops / 8
	if ops == 0 {
		ops = 1
	}
	k.Go("driver", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			start := p.Now()
			if _, _, err := rc.Write(p, &rpc.Request{Op: rpc.OpWrite, Key: uint64(i % d.objects), Size: 4096}); err != nil {
				panic(err)
			}
			total += p.Now().Sub(start)
		}
	})
	k.Run()
	return total / time.Duration(ops)
}

// replicaSet is a client host plus R replica servers.
type replicaSet struct {
	clients []rpc.Client
}

// buildReplicaSet wires one client host against R replica servers.
func buildReplicaSet(k *sim.Kernel, d *deployment, replicas int, straggle bool) *replicaSet {
	net := newFabric(k, d)
	cli := newHost(k, "client-0", net, d.hostCli, d)
	out := &replicaSet{}
	for i := 0; i < replicas; i++ {
		hp := d.hostSrv
		if straggle && i == replicas-1 && replicas > 1 {
			hp.LoadFactor = 6
		}
		srv := newHost(k, fmt.Sprintf("replica-%d", i), net, hp, d)
		store, err := rpc.NewStore(srv, d.objects, d.objSize)
		if err != nil {
			panic(err)
		}
		engine := rpc.NewServer(srv, store, d.cfg)
		out.clients = append(out.clients, rpc.New(rpc.WFlushRPC, cli, engine, d.cfg))
	}
	return out
}

// Table1Extras measures the Table 1 systems the paper tabulates but does not
// plot: Hotpot's multi-phase commit and Mojim's primary-backup mirroring,
// against DaRPC (same primitive class) and the durable SFlush-RPC.
func (o Options) Table1Extras() Table {
	t := Table{
		Title:  "Table 1 extras: send-based systems, write avg latency (us)",
		Header: []string{"system", "1KB", "4KB"},
		Notes:  "Hotpot pays two commit round trips; Mojim pays a mirroring hop; SFlush-RPC acknowledges at NIC persistence",
	}
	kinds := []rpc.Kind{rpc.DaRPC, rpc.Hotpot, rpc.SFlushRPC}
	sizes := []int{1024, 4096}
	// Cell matrix: (kinds..., Mojim) x sizes; Mojim needs its own two-server
	// topology, so it is measured by mojimWrite instead of micro.
	cells := mapCells(o.runner(), (len(kinds)+1)*len(sizes), func(i int) string {
		ki, size := i/len(sizes), sizes[i%len(sizes)]
		if ki == len(kinds) {
			return fmtUS(o.mojimWrite(size))
		}
		m := o.micro(kinds[ki], o.deploy(size), o.Ops/4, 0.0)
		return fmtUS(m.Lat.Mean())
	})
	for ki, kind := range kinds {
		row := append([]string{kind.String()}, cells[ki*len(sizes):(ki+1)*len(sizes)]...)
		t.Rows = append(t.Rows, row)
	}
	row := append([]string{"Mojim"}, cells[len(kinds)*len(sizes):]...)
	t.Rows = append(t.Rows, row)
	return t
}

// mojimWrite measures Mojim's mirrored write latency (needs two servers).
func (o Options) mojimWrite(size int) time.Duration {
	d := o.deploy(size)
	k := sim.New()
	net := newFabric(k, d)
	cli := newHost(k, "client-0", net, d.hostCli, d)
	ph := newHost(k, "primary", net, d.hostSrv, d)
	mh := newHost(k, "mirror", net, d.hostSrv, d)
	ps, err := rpc.NewStore(ph, d.objects, size)
	if err != nil {
		panic(err)
	}
	ms, err := rpc.NewStore(mh, d.objects, size)
	if err != nil {
		panic(err)
	}
	primary := rpc.NewServer(ph, ps, d.cfg)
	mirror := rpc.NewServer(mh, ms, d.cfg)
	client := rpc.NewMojim(cli, primary, mirror, d.cfg)
	var total time.Duration
	ops := o.Ops / 8
	if ops == 0 {
		ops = 1
	}
	k.Go("driver", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			r, err := client.Call(p, &rpc.Request{Op: rpc.OpWrite, Key: uint64(i % d.objects), Size: size})
			if err != nil {
				panic(err)
			}
			total += r.ReadyAt.Sub(r.IssuedAt)
		}
	})
	k.Run()
	return total / time.Duration(ops)
}
