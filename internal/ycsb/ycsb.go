// Package ycsb generates the YCSB workloads the paper evaluates (§5.1,
// Fig. 11): workloads A–F over 50 K objects with 8-byte keys and 4 KB
// values, zipfian-skewed (99 % skewness) except D, which reads the latest
// inserts. The zipfian generator follows Gray et al. ("Quickly generating
// billion-record synthetic databases"), as YCSB's own does.
package ycsb

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"prdma/internal/rpc"
	"prdma/internal/sim"
)

// Zipfian draws integers in [0, n) with P(k) ∝ 1/(k+1)^theta.
type Zipfian struct {
	n     int64
	theta float64

	alpha, zetan, eta float64
	zeta2             float64
	rng               *sim.Rand
}

// NewZipfian builds a generator over [0, n) with the given skew (the paper
// uses theta = 0.99).
func NewZipfian(rng *sim.Rand, n int64, theta float64) *Zipfian {
	z := &Zipfian{n: n, theta: theta, rng: rng}
	z.zeta2 = zetaStatic(2, theta)
	z.zetan = zetaStatic(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// zetas memoizes zetaStatic per (n, theta): the cluster load generator
// builds one generator per client over the same key space, and workload D
// one per draw. Concurrent runner cells and engine workers share it.
var (
	zetaMu sync.Mutex
	zetas  = map[zetaKey]float64{}
)

type zetaKey struct {
	n     int64
	theta float64
}

func zetaStatic(n int64, theta float64) float64 {
	key := zetaKey{n, theta}
	zetaMu.Lock()
	z, ok := zetas[key]
	zetaMu.Unlock()
	if ok {
		return z
	}
	for i := int64(1); i <= n; i++ {
		z += 1 / math.Pow(float64(i), theta)
	}
	zetaMu.Lock()
	zetas[key] = z
	zetaMu.Unlock()
	return z
}

// Next draws the next key.
func (z *Zipfian) Next() int64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// Scrambled hashes the zipfian rank across the key space so hot keys are
// spread out, as YCSB's ScrambledZipfianGenerator does.
func (z *Zipfian) Scrambled() int64 {
	return int64(fnv64(uint64(z.Next())) % uint64(z.n))
}

func fnv64(x uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	return h
}

// Workload identifies a YCSB core workload.
type Workload byte

// The YCSB core workloads, as §5.1 describes them.
const (
	// A: 50% update, 50% read.
	A Workload = 'A'
	// B: 95% read, 5% update.
	B Workload = 'B'
	// C: read-only.
	C Workload = 'C'
	// D: 95% read of the latest inserts, 5% insert.
	D Workload = 'D'
	// E: 95% scan, 5% insert.
	E Workload = 'E'
	// F: 50% read, 50% read-modify-write.
	F Workload = 'F'
)

// Workloads lists A–F in order.
var Workloads = []Workload{A, B, C, D, E, F}

func (w Workload) String() string { return string(w) }

// ParseWorkloads maps a string like "ABF" (or "A,B,F") to workloads.
func ParseWorkloads(s string) ([]Workload, error) {
	var out []Workload
	for _, r := range strings.ToUpper(s) {
		if r == ',' || r == ' ' {
			continue
		}
		if r < 'A' || r > 'F' {
			return nil, fmt.Errorf("ycsb: unknown workload %q (A–F)", string(r))
		}
		out = append(out, Workload(r))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("ycsb: no workloads in %q", s)
	}
	return out, nil
}

// Config shapes a workload run.
type Config struct {
	Records   int // objects pre-loaded (paper: 50 K)
	ValueSize int // bytes per value (paper: 4 KB)
	Theta     float64
	MaxScan   int
	Seed      uint64
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{Records: 50000, ValueSize: 4096, Theta: 0.99, MaxScan: 16, Seed: 42}
}

// Generator produces the operation stream of one workload.
type Generator struct {
	W   Workload
	Cfg Config

	zip      *Zipfian
	rng      *sim.Rand
	inserted int64

	// RMWs counts read-modify-write pairs issued (workload F).
	RMWs int64
}

// NewGenerator builds a generator for w.
func NewGenerator(w Workload, cfg Config) *Generator {
	rng := sim.NewRand(cfg.Seed ^ uint64(w))
	return &Generator{
		W: w, Cfg: cfg,
		zip:      NewZipfian(rng.Fork(), int64(cfg.Records), cfg.Theta),
		rng:      rng,
		inserted: int64(cfg.Records),
	}
}

// key draws the target key per the workload's distribution.
func (g *Generator) key() uint64 {
	if g.W == D {
		// Latest distribution: skewed towards the most recent inserts.
		off := NewZipfian(g.rng, 64, g.Cfg.Theta).Next()
		k := g.inserted - 1 - off
		if k < 0 {
			k = 0
		}
		return uint64(k)
	}
	return uint64(g.zip.Scrambled())
}

// Next produces the next request (two for a read-modify-write: the returned
// slice has one or two elements, executed in order).
func (g *Generator) Next() []*rpc.Request {
	v := g.rng.Float64()
	sz := g.Cfg.ValueSize
	switch g.W {
	case A:
		if v < 0.5 {
			return []*rpc.Request{{Op: rpc.OpWrite, Key: g.key(), Size: sz}}
		}
	case B:
		if v < 0.05 {
			return []*rpc.Request{{Op: rpc.OpWrite, Key: g.key(), Size: sz}}
		}
	case C:
		// read-only
	case D:
		if v < 0.05 {
			k := uint64(g.inserted)
			g.inserted++
			return []*rpc.Request{{Op: rpc.OpWrite, Key: k, Size: sz}}
		}
	case E:
		if v < 0.05 {
			k := uint64(g.inserted)
			g.inserted++
			return []*rpc.Request{{Op: rpc.OpWrite, Key: k, Size: sz}}
		}
		scan := 1 + g.rng.Intn(g.Cfg.MaxScan)
		return []*rpc.Request{{Op: rpc.OpScan, Key: g.key(), Size: sz, ScanLen: scan}}
	case F:
		if v < 0.5 {
			g.RMWs++
			k := g.key()
			return []*rpc.Request{
				{Op: rpc.OpRead, Key: k, Size: sz},
				{Op: rpc.OpWrite, Key: k, Size: sz},
			}
		}
	}
	return []*rpc.Request{{Op: rpc.OpRead, Key: g.key(), Size: sz}}
}

// Mix returns a generator for an arbitrary read fraction over zipfian keys —
// the knob behind Figs. 8, 12 and 18.
type Mix struct {
	ReadFrac float64
	Size     int
	zip      *Zipfian
	rng      *sim.Rand
}

// NewMix builds a read/write mix over n keys.
func NewMix(readFrac float64, n int64, size int, seed uint64) *Mix {
	rng := sim.NewRand(seed)
	return &Mix{ReadFrac: readFrac, Size: size, zip: NewZipfian(rng.Fork(), n, 0.99), rng: rng}
}

// Next produces the next request.
func (m *Mix) Next() *rpc.Request {
	op := rpc.OpWrite
	if m.rng.Float64() < m.ReadFrac {
		op = rpc.OpRead
	}
	return &rpc.Request{Op: op, Key: uint64(m.zip.Scrambled()), Size: m.Size}
}
