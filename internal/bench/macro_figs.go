package bench

import (
	"fmt"
	"time"

	"prdma/internal/graph"
	"prdma/internal/kv"
	"prdma/internal/rpc"
	"prdma/internal/sim"
	"prdma/internal/ycsb"
)

// Fig10 reproduces Fig. 10: PageRank execution time over the paper's three
// graph datasets, with graph data fetched from remote PM via each RPC.
func (o Options) Fig10() Table {
	scale := o.GraphScale
	if scale < 1 {
		scale = 1
	}
	t := Table{
		Title:  fmt.Sprintf("Fig 10: PageRank time (s), datasets scaled 1/%d, %d iterations", scale, o.PageRankIters),
		Header: []string{"rpc", "wordassociation-2011", "enron", "dblp-2010"},
		Notes:  "expect: SFlush/S-RFlush -8..-30% vs DaRPC; WFlush/W-RFlush -8..-38% vs write-based RPCs",
	}
	graphs := make([]*graph.Graph, len(graph.Datasets))
	for i, ds := range graph.Datasets {
		scaled := graph.Dataset{Name: ds.Name, Nodes: ds.Nodes / scale, Edges: ds.Edges / scale}
		graphs[i] = graph.Generate(scaled, o.Seed)
	}
	var kinds []rpc.Kind
	for _, kind := range rpc.Kinds {
		if kind == rpc.FaSST {
			continue // adjacency chunks exceed the UD MTU on big vertices
		}
		kinds = append(kinds, kind)
	}
	// The generated graphs are shared across cells but only read: each cell
	// builds its own PageRank state over its own deployment.
	cells := mapCells(o.runner(), len(kinds)*len(graphs), func(i int) string {
		return fmt.Sprintf("%.3f", o.pageRankTime(kinds[i/len(graphs)], graphs[i%len(graphs)]))
	})
	for ki, kind := range kinds {
		row := append([]string{kind.String()}, cells[ki*len(graphs):(ki+1)*len(graphs)]...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// pageRankTime runs PageRank once and returns virtual seconds.
func (o Options) pageRankTime(kind rpc.Kind, g *graph.Graph) float64 {
	d := o.deploy(4096)
	d.objects = 16 // adjacency objects allocate lazily per vertex key
	c := d.mustBuild()
	client := rpc.New(kind, c.cli[0], c.engine, d.cfg)
	pr := &graph.PageRank{G: g, Client: client, Iterations: o.PageRankIters}
	var elapsed sim.Time
	c.k.Go("pagerank", func(p *sim.Proc) {
		if err := pr.Run(p, c.cli[0]); err != nil {
			panic(err)
		}
		elapsed = p.Now()
	})
	c.k.Run()
	return elapsed.Duration().Seconds()
}

// Fig11 reproduces Fig. 11: average RPC latency across YCSB workloads A–F
// (8-byte keys, 4 KB values).
func (o Options) Fig11() Table {
	t := Table{
		Title:  "Fig 11: YCSB avg latency (us)",
		Header: []string{"rpc", "A", "B", "C", "D", "E", "F"},
		Notes:  "expect: durable RPCs up to -50% on write-heavy A/E(inserts)/F; parity on read-heavy B/C/D",
	}
	var kinds []rpc.Kind
	for _, kind := range rpc.Kinds {
		if skip(kind, 4096) {
			continue
		}
		kinds = append(kinds, kind)
	}
	cells := mapCells(o.runner(), len(kinds)*len(ycsb.Workloads), func(i int) string {
		return fmtUS(o.ycsbLatency(kinds[i/len(ycsb.Workloads)], ycsb.Workloads[i%len(ycsb.Workloads)]))
	})
	for ki, kind := range kinds {
		row := append([]string{kind.String()}, cells[ki*len(ycsb.Workloads):(ki+1)*len(ycsb.Workloads)]...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ycsbLatency runs one workload and returns the mean RPC latency in seconds.
func (o Options) ycsbLatency(kind rpc.Kind, w ycsb.Workload) (mean time.Duration) {
	d := o.deploy(4096)
	c := d.mustBuild()
	client := rpc.New(kind, c.cli[0], c.engine, d.cfg)
	store := kv.Open(client, c.cli[0], d.objects, 4096)
	cfg := ycsb.DefaultConfig()
	cfg.Records = d.objects
	cfg.ValueSize = 4096
	cfg.Seed = o.Seed
	gen := ycsb.NewGenerator(w, cfg)
	c.k.Go("ycsb", func(p *sim.Proc) {
		res, err := store.Run(p, gen.Next, o.Ops)
		if err != nil {
			panic(err)
		}
		mean = res.Latency.Mean()
	})
	c.k.Run()
	return mean
}
