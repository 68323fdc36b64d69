// Package rng provides fast, deterministic, splittable pseudo-random number
// generators used throughout Slim Graph.
//
// Compression kernels execute in parallel, and every kernel instance needs an
// independent random stream so that results are reproducible for a fixed
// (seed, worker count) pair. The package implements SplitMix64 (for seeding
// and cheap stateless hashing) and xoshiro256** (the workhorse generator),
// both from the public-domain reference implementations by Blackman and
// Vigna.
package rng

import "math"

// golden is SplitMix64's increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// SplitMix64 advances the given state and returns the next 64-bit output.
// It is used to derive independent seeds for per-worker streams and as a
// stateless hash of (seed, index) pairs.
func SplitMix64(state *uint64) uint64 {
	*state += golden
	return mix64(*state)
}

// mix64 is SplitMix64's output function: the k-th output from state s is
// mix64(s + k·golden), so any one of them is computed without the others.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 deterministically mixes two 64-bit values into one. It gives every
// graph element (edge ID, vertex ID, ...) its own high-quality random word
// without any shared state, which is what makes parallel kernels both
// race-free and schedule-independent when element-keyed randomness is used.
func Hash64(seed, x uint64) uint64 {
	s := seed ^ (x+golden)*0xff51afd7ed558ccd
	return SplitMix64(&s)
}

// Rand is a xoshiro256** generator. The zero value is not usable; construct
// with New.
//
// Its state is seeded lazily: s[i] is the (i+1)-th SplitMix64 output from
// seed, and pending says how much of it is still to be derived. A kernel
// instance reseeds its generator and then mostly draws once or not at all,
// and xoshiro256**'s first output reads s[1] alone.
type Rand struct {
	s       [4]uint64
	seed    uint64
	pending uint8 // 2: no word derived; 1: only s[1]; 0: s is the full state
}

// New returns a generator seeded from the given seed via SplitMix64, as
// recommended by the xoshiro authors.
func New(seed uint64) *Rand {
	r := new(Rand)
	r.Reseed(seed)
	return r
}

// Reseed restarts r in place as the stream New(seed) returns, so a loop over
// millions of elements keeps one generator instead of allocating one each.
// It only stores the seed: the first draw derives the one state word its
// output reads (one SplitMix64 output), the second the other three.
func (r *Rand) Reseed(seed uint64) {
	r.seed, r.pending = seed, 2
}

// Split returns a new generator whose stream is independent of r's with
// overwhelming probability. It is used to hand one stream to each parallel
// worker.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	if r.pending != 0 {
		if r.pending == 2 {
			// The first output reads s[1] alone, the second SplitMix64
			// output; the step it would take waits for the second draw.
			r.s[1] = mix64(r.seed + golden + golden)
			r.pending = 1
			return rotl(r.s[1]*5, 7) * 9
		}
		z := r.seed
		r.s[0] = SplitMix64(&z)
		z += golden // s[1] is derived
		r.s[2] = SplitMix64(&z)
		r.s[3] = SplitMix64(&z)
		r.pending = 0
		r.step()
	}
	result := rotl(r.s[1]*5, 7) * 9
	r.step()
	return result
}

// step advances the xoshiro256** state by one output.
func (r *Rand) step() {
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) by modulo rejection: a draw
// below 2^64 mod n is redrawn, and the rest are reduced with v % n. It
// panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Rejection sampling on the low word keeps the result exactly uniform.
	for {
		v := r.Uint64()
		if v < -n%n { // v below 2^64 mod n would bias the result
			continue
		}
		return v % n
	}
}

// ExpFloat64 returns an exponentially distributed float64 with rate lambda
// (mean 1/lambda), via inverse transform sampling. Low-diameter
// decomposition uses these as the per-vertex start-time shifts.
func (r *Rand) ExpFloat64(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: ExpFloat64 called with lambda <= 0")
	}
	u := r.Float64()
	// 1-u is in (0, 1], so the logarithm is finite.
	return -math.Log(1-u) / lambda
}

// Perm returns a uniformly random permutation of [0, n) (Fisher–Yates).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the given swap
// function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bernoulli reports true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.Float64() < p
}
