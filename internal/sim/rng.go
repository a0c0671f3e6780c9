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

// xoshiro is one xoshiro256** step on state held in locals: the
// output and the next state.
func xoshiro(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return out, s0, s1, s2, rotl(s3, 45)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() (out uint64) {
	s := &r.s
	out, s[0], s[1], s[2], s[3] = xoshiro(s[0], s[1], s[2], s[3])
	return out
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

// PolarFill draws the next len(u) polar pairs that Norm would accept,
// in stream order: u[i] is the pair's first coordinate and s[i] its
// u²+v², so u[i]·√(−2·ln s[i] / s[i]) is exactly the i-th Norm() of
// the same stream (linalg.PolarNorm computes that transform). It
// consumes exactly the uniforms those Norm calls would, so the stream
// goes on from the same state. The xoshiro words stay in locals for
// the whole batch, written back once; the expressions are Norm's own.
// s must hold at least len(u) values.
//
// Every attempt is written to slot i, and i moves on only when the
// pair is accepted, so the rejection test is a conditional move, not a
// branch mispredicted about one attempt in five. The test is Norm's
// 0 < s < 1 on the bits: s = u²+v² is never NaN and its sign bit is
// clear, so as an integer b it is accepted exactly when 1 ≤ b <
// bits(1.0), which b−1 < bits(1.0)−1 checks without a second compare
// (b = 0, +0, wraps to the largest uint64).
func (r *RNG) PolarFill(u, s []float64) {
	s = s[:len(u)]
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := 0; i < len(u); {
		var x, y uint64
		x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		y, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		uu := 2*(float64(x>>11)/(1<<53)) - 1
		vv := 2*(float64(y>>11)/(1<<53)) - 1
		ss := uu*uu + vv*vv
		u[i], s[i] = uu, ss
		if math.Float64bits(ss)-1 < math.Float64bits(1)-1 {
			i++
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
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
