// Package xrand provides a small, fast, deterministic random number
// generator used across the simulator and the workload generators.
//
// The generator is a splitmix64 stream. Unlike math/rand's global source it
// is explicitly seeded and splittable: independent components (each node,
// each emulated browser) derive their own stream from a parent, so a whole
// experiment is reproducible from a single root seed regardless of event
// interleaving.
package xrand

import "math"

// Rand is a deterministic splitmix64 random number generator. The zero
// value is a valid generator seeded with zero; prefer New.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Split derives an independent child generator. The child's sequence does
// not overlap with the parent's for any practical stream length.
func (r *Rand) Split() *Rand {
	// Mix the parent's next output with a large odd constant so that
	// children of successive Split calls are decorrelated.
	return &Rand{state: r.Uint64()*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n called with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1.
func (r *Rand) ExpFloat64() float64 {
	// Inverse transform sampling; clamp the uniform away from 0 so the
	// result is finite.
	u := r.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	return -math.Log(u)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
