package sim

import "math"

// Rand is a small deterministic pseudo-random generator (splitmix64 core).
// The simulation cannot use math/rand's global state because experiment
// drivers must be exactly reproducible across processes and Go versions.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a pseudo-random int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Norm returns a normally distributed value (Box–Muller).
func (r *Rand) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return mean + stddev*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// LogNorm returns a log-normally distributed value whose underlying normal
// has the given mu and sigma. Used for service-time jitter: long right tail,
// never negative.
func (r *Rand) LogNorm(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Fork returns a new generator deterministically derived from this one,
// used to give independent substreams to independent model components.
func (r *Rand) Fork() *Rand { return NewRand(r.Uint64()) }
