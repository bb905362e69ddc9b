// Package stats provides the small statistics and deterministic-randomness
// substrate used throughout the icares system: a splittable PRNG, descriptive
// statistics, the heatmap grid, linear regression, correlation and trend
// measures, and normalization helpers.
//
// Everything in the simulator that needs randomness draws it from an *RNG so
// that a full mission run is reproducible from a single seed.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator based on SplitMix64.
// It is intentionally not safe for concurrent use; give each concurrent
// component its own stream via Split.
//
// The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent child generator from the current state.
// The parent advances, so successive Splits yield distinct streams.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Norm returns a normally distributed value with the given mean and standard
// deviation, using the Box-Muller transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	// Guard against log(0).
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Choice returns a random index in [0, len(weights)) with probability
// proportional to the (non-negative) weights. If all weights are zero it
// falls back to a uniform choice. It panics on an empty slice.
func (r *RNG) Choice(weights []float64) int {
	if len(weights) == 0 {
		panic("stats: Choice called with no weights")
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
