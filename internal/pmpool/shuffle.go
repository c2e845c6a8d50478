package pmpool

import (
	"encoding/binary"
	"fmt"
	"math"

	"prdma/internal/graph"
	"prdma/internal/sim"
)

// ShuffleConfig shapes the disaggregated shuffle: PageRank with the
// map→reduce contribution exchange staged through the remote pool instead
// of local memory. Map partition m computes the rank contributions its
// nodes push to each reducer, encodes them into fixed-size blocks, and
// Alloc+Writes every block into the pool; reducer r Reads the blocks
// addressed to it back in deterministic (map, block) order, accumulates,
// and Frees them. The only channel between the phases is remote PM.
type ShuffleConfig struct {
	// Maps is the number of map partitions (contiguous node ranges).
	Maps int
	// Reducers is the number of reduce partitions (node % Reducers).
	Reducers int
	// Iterations is the PageRank iteration count.
	Iterations int
	// MaxChunk caps the encoded bytes per pool block (default 32 KiB).
	MaxChunk int
	// Damping is the PageRank damping factor (default 0.85).
	Damping float64
}

// DefaultShuffleConfig returns a 4x4 shuffle matching examples/pagerank's
// iteration count.
func DefaultShuffleConfig() ShuffleConfig {
	return ShuffleConfig{Maps: 4, Reducers: 4, Iterations: 10, MaxChunk: 32 << 10, Damping: 0.85}
}

func (cfg *ShuffleConfig) norm() {
	if cfg.MaxChunk <= 0 {
		cfg.MaxChunk = 32 << 10
	}
	if cfg.MaxChunk%recordBytes != 0 {
		cfg.MaxChunk -= cfg.MaxChunk % recordBytes
	}
	if cfg.Damping == 0 {
		cfg.Damping = 0.85
	}
}

// recordBytes is one encoded contribution: target node (4) + float64 bits (8).
const recordBytes = 12

// mapRange returns map partition m's node range [lo, hi).
func mapRange(n, maps, m int) (int32, int32) {
	lo := m * n / maps
	hi := (m + 1) * n / maps
	return int32(lo), int32(hi)
}

// emitChunks encodes the contributions map partition m sends every
// reducer under the current ranks: chunks[r] holds reducer r's records in
// node order, split into blocks of at most MaxChunk bytes. One walk over
// the partition's edges fills every reducer's blocks, each allocated at
// MaxChunk. Both the remote shuffle and the local baseline call it, so the
// bytes — and therefore the floating-point accumulation order downstream —
// are identical by construction.
func emitChunks(g *graph.Graph, ranks []float64, cfg ShuffleConfig, m int) [][][]byte {
	lo, hi := mapRange(g.Nodes(), cfg.Maps, m)
	chunks := make([][][]byte, cfg.Reducers)
	cur := make([][]byte, cfg.Reducers)
	for u := lo; u < hi; u++ {
		deg := g.Degree(u)
		if deg == 0 {
			continue // dangling mass is dropped, identically in both paths
		}
		bits := math.Float64bits(ranks[u] / float64(deg))
		for _, v := range g.Neighbors(u) {
			r := int(v) % cfg.Reducers
			b := cur[r]
			if len(b)+recordBytes > cfg.MaxChunk {
				chunks[r] = append(chunks[r], b)
				b = nil
			}
			if b == nil {
				b = make([]byte, 0, cfg.MaxChunk)
			}
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
			cur[r] = binary.LittleEndian.AppendUint64(b, bits)
		}
	}
	for r, b := range cur {
		if len(b) > 0 {
			chunks[r] = append(chunks[r], b)
		}
	}
	return chunks
}

// reduceChunks folds decoded contribution records into acc. Records apply
// in chunk order, so the float addition order is fixed by the chunk list.
func reduceChunks(acc []float64, chunks [][]byte) error {
	for _, ch := range chunks {
		if len(ch)%recordBytes != 0 {
			return fmt.Errorf("pmpool: shuffle block of %d bytes is not record-aligned", len(ch))
		}
		for o := 0; o < len(ch); o += recordBytes {
			v := binary.LittleEndian.Uint32(ch[o:])
			acc[v] += math.Float64frombits(binary.LittleEndian.Uint64(ch[o+4:]))
		}
	}
	return nil
}

// ShuffleStats summarizes one remote shuffle run.
type ShuffleStats struct {
	// Blocks and Bytes count pool allocations carrying shuffle data.
	Blocks int64
	Bytes  int64
}

// ShufflePageRank runs cfg.Iterations of PageRank with every map→reduce
// exchange staged through the pool cluster: map partition m uses
// pools[m%len(pools)], reducer r uses pools[r%len(pools)], and each phase
// runs its partitions as concurrent procs joined by a barrier. Returns the
// final ranks, which must be bit-identical to LocalShufflePageRank on the
// same graph and config — the blocks round-trip through remote PM but the
// bytes, and so the float accumulation order, are the same.
func ShufflePageRank(p *sim.Proc, pools []*Pool, g *graph.Graph, cfg ShuffleConfig) ([]float64, ShuffleStats, error) {
	cfg.norm()
	n := g.Nodes()
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}
	next := make([]float64, n)
	var stats ShuffleStats
	k := p.K

	// blocks[m][r] is the handle+length list map m wrote for reducer r.
	type block struct {
		h *Handle
		n int
	}
	blocks := make([][][]block, cfg.Maps)
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	for iter := 0; iter < cfg.Iterations; iter++ {
		// Map phase: emit and push every block into the pool.
		wg := sim.NewWaitGroup(k)
		wg.Add(cfg.Maps)
		for m := 0; m < cfg.Maps; m++ {
			m := m
			pool := pools[m%len(pools)]
			blocks[m] = make([][]block, cfg.Reducers)
			k.Go(fmt.Sprintf("shuffle-map-%d", m), func(mp *sim.Proc) {
				defer wg.Done()
				for r, chunks := range emitChunks(g, ranks, cfg, m) {
					for _, ch := range chunks {
						h, err := pool.Alloc(mp, int64(len(ch)))
						if err != nil {
							fail(err)
							return
						}
						if err := pool.Write(mp, h, 0, ch); err != nil {
							fail(err)
							return
						}
						blocks[m][r] = append(blocks[m][r], block{h: h, n: len(ch)})
						stats.Blocks++
						stats.Bytes += int64(len(ch))
					}
				}
			})
		}
		wg.Wait(p)
		if firstErr != nil {
			return nil, stats, firstErr
		}

		// Reduce phase: pull blocks back in (map, block) order, fold, free.
		wg = sim.NewWaitGroup(k)
		wg.Add(cfg.Reducers)
		for r := 0; r < cfg.Reducers; r++ {
			r := r
			pool := pools[r%len(pools)]
			k.Go(fmt.Sprintf("shuffle-reduce-%d", r), func(rp *sim.Proc) {
				defer wg.Done()
				acc := make([]float64, n)
				for m := 0; m < cfg.Maps; m++ {
					for _, b := range blocks[m][r] {
						data, err := pool.Read(rp, b.h, 0, b.n)
						if err != nil {
							fail(err)
							return
						}
						if err := reduceChunks(acc, [][]byte{data}); err != nil {
							fail(err)
							return
						}
						if err := pool.Free(rp, b.h); err != nil {
							fail(err)
							return
						}
					}
				}
				base := (1 - cfg.Damping) / float64(n)
				for v := r; v < n; v += cfg.Reducers {
					next[v] = base + cfg.Damping*acc[v]
				}
			})
		}
		wg.Wait(p)
		if firstErr != nil {
			return nil, stats, firstErr
		}
		ranks, next = next, ranks
	}
	return ranks, stats, nil
}

// LocalShufflePageRank is the in-memory baseline: the identical emit /
// reduce loops over the identical encoded blocks, with the pool round-trip
// replaced by holding the blocks in DRAM. Its ranks are the ground truth
// the disaggregated run must reproduce bit-for-bit.
func LocalShufflePageRank(g *graph.Graph, cfg ShuffleConfig) []float64 {
	cfg.norm()
	n := g.Nodes()
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}
	next := make([]float64, n)
	chunks := make([][][][]byte, cfg.Maps) // [map][reducer] block lists
	for iter := 0; iter < cfg.Iterations; iter++ {
		for m := range chunks {
			chunks[m] = emitChunks(g, ranks, cfg, m)
		}
		for r := 0; r < cfg.Reducers; r++ {
			acc := make([]float64, n)
			for m := 0; m < cfg.Maps; m++ {
				if err := reduceChunks(acc, chunks[m][r]); err != nil {
					panic(err) // emitChunks produces aligned blocks by construction
				}
			}
			base := (1 - cfg.Damping) / float64(n)
			for v := r; v < n; v += cfg.Reducers {
				next[v] = base + cfg.Damping*acc[v]
			}
		}
		ranks, next = next, ranks
	}
	return ranks
}

// CompareRanks reports the first bit-level divergence between a remote
// shuffle's ranks and the local baseline (nil when bit-identical).
func CompareRanks(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("pmpool: rank vector length %d != baseline %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("pmpool: rank %d diverged from the local baseline: %g != %g", i, got[i], want[i])
		}
	}
	return nil
}
