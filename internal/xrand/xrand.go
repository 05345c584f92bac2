// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// The simulator must be reproducible across runs and platforms: every
// workload, every trainer, and every randomized search is seeded
// explicitly, and the generators here have a fixed, documented algorithm
// (SplitMix64 for seeding, xoshiro256** for the stream). math/rand is
// deliberately avoided so that results cannot drift with Go releases.
package xrand

// SplitMix64 advances the given state by one step and returns the next
// 64-bit output. It is used to derive stream seeds from a single root seed.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Rand is a deterministic xoshiro256** generator.
// The zero value is not usable; construct with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, as recommended
// by the xoshiro authors. Two generators with the same seed produce the
// same stream forever.
func New(seed uint64) *Rand {
	r := &Rand{}
	st := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&st)
	}
	// Guard against the all-zero state (cannot happen with SplitMix64
	// outputs from distinct inputs, but cheap to assert).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 bits of the stream.
func (r *Rand) Uint64() uint64 {
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

// Uint32 returns the next 32 bits of the stream.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling to remove modulo bias.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ShuffleInts shuffles p in place with the Fisher-Yates algorithm.
func (r *Rand) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Perm16 returns a Fisher-Yates permutation of [0, n) as uint16 values.
// It panics if n > 65536. Whisper's 15-bit formula space (32768 encodings)
// fits exactly; storing the permutation as uint16 keeps the shared table
// at 64KB.
func (r *Rand) Perm16(n int) []uint16 {
	if n > 1<<16 {
		panic("xrand: Perm16 limit exceeded")
	}
	p := make([]uint16, n)
	for i := range p {
		p[i] = uint16(i)
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Geometric returns a sample from a geometric distribution with success
// probability p (number of Bernoulli(p) trials needed for one success,
// minimum 1). Used by workload generators for run lengths.
func (r *Rand) Geometric(p float64) int {
	if p >= 1 {
		return 1
	}
	if p <= 0 {
		panic("xrand: Geometric called with p <= 0")
	}
	n := 1
	for !r.Bool(p) {
		n++
		if n > 1<<20 { // safety bound; probability astronomically small
			return n
		}
	}
	return n
}

// Zipf samples from a bounded Zipf-like distribution over [0, n) with
// exponent s using inverse-CDF on a precomputed table. Construct with
// NewZipf; sampling is O(log n).
type Zipf struct {
	cdf []float64
	r   *Rand
}

// NewZipf builds a Zipf sampler over [0, n) with exponent s > 0.
// Rank 0 is the most probable element.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf called with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / powf(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1.0 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	return &Zipf{cdf: cdf, r: r}
}

// Next returns the next sample in [0, n).
func (z *Zipf) Next() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// powf is a minimal x^y for x > 0 implemented with exp/log via the
// identity x^y = e^(y ln x), using math-free polynomial approximations is
// overkill here; we accept the tiny dependency on the math package.
func powf(x, y float64) float64 {
	return mathPow(x, y)
}
