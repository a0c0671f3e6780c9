// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event calendar, and reproducible random variates.
//
// All FDW experiments run on this kernel so that "34.8 hours" of simulated
// OSG wall time executes in milliseconds of real time and is exactly
// reproducible given a seed.
package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64 seeding an xoshiro256** core). It is intentionally
// independent of math/rand so that simulation results are stable
// across Go releases.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the all-zero state, which is a fixed point of xoshiro.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives an independent stream from r, keyed by key.
// Streams with distinct keys are statistically independent, which lets
// each simulated entity (site, job, DAGMan) own a private stream so that
// adding entities does not perturb the variates drawn by others.
func (r *RNG) Split(key uint64) *RNG {
	return NewRNG(r.Uint64() ^ (key * 0x9e3779b97f4a7c15) ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform variate in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a standard normal variate (Box–Muller, polar form).
func (r *RNG) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Normal returns a normal variate with the given mean and standard deviation.
func (r *RNG) Normal(mean, sd float64) float64 {
	return mean + sd*r.Norm()
}

// LogNormal returns exp(N(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exp returns an exponential variate with the given mean.
// It panics if mean <= 0.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("sim: Exp with non-positive mean")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// TruncNormal returns a normal variate clamped to [lo, hi] by resampling
// (falling back to clamping after a bounded number of attempts, so it
// terminates even for pathological bounds).
func (r *RNG) TruncNormal(mean, sd, lo, hi float64) float64 {
	if lo > hi {
		panic("sim: TruncNormal with lo > hi")
	}
	for i := 0; i < 64; i++ {
		x := r.Normal(mean, sd)
		if x >= lo && x <= hi {
			return x
		}
	}
	return math.Min(hi, math.Max(lo, mean))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
