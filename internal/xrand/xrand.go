// Package xrand provides a small deterministic, splittable random number
// generator (SplitMix64 seeding a xoshiro256** core). Every stochastic
// element of the simulation — Monte-Carlo collisions, Lustre object IDs
// and jitter (Vega's variability), failure arrivals — derives its stream
// from a run seed through Split, so experiments are bit-reproducible and
// independent sub-streams never correlate.
package xrand

import "math"

// RNG is a xoshiro256** generator. The zero value is invalid; use New.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances x and returns a well-mixed 64-bit value.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed via SplitMix64.
func New(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start at the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// SeedAt derives the seed of sweep trial index from a run's base seed:
// two SplitMix64 steps keyed by base and index. Trial seeds depend only
// on (base, index), never on evaluation order, so a parallel parameter
// sweep draws bit-identical streams to a serial one; and because
// SplitMix64 is a bijective mixer, distinct indices under one base never
// collide into the same seed.
func SeedAt(base, index uint64) uint64 {
	x := base
	h := splitmix64(&x)
	x = h ^ (index+1)*0xd1342543de82ef95
	return splitmix64(&x)
}

// Split derives an independent generator from this one, keyed by label.
// Splitting does not perturb the parent stream.
func (r *RNG) Split(label uint64) *RNG {
	x := r.s[0] ^ (r.s[2] * 0x9e3779b97f4a7c15) ^ (label * 0xd1342543de82ef95)
	return New(splitmix64(&x))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal deviate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponentially distributed deviate with mean 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Maxwellian returns a velocity component drawn from a Maxwellian with
// thermal speed vth (standard deviation of each component).
func (r *RNG) Maxwellian(vth float64) float64 {
	return vth * r.NormFloat64()
}
