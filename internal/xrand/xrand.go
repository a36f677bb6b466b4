// Package xrand provides a small, fast, deterministic random number
// generator and the distribution samplers used throughout the fault
// simulator and the ML stack.
//
// Determinism matters here: every experiment in the reproduction is driven
// by an explicit seed so that `go test` and the benchmark harness produce
// identical numbers run-to-run and machine-to-machine. The generator is
// splitmix64 feeding xoshiro256**, the same construction used by many
// modern standard libraries.
package xrand

import "math"

// RNG is a deterministic pseudo-random number generator. The zero value is
// not usable; construct with New. RNG is not safe for concurrent use; give
// each goroutine its own RNG (use Split).
type RNG struct {
	s [4]uint64
}

// New returns an RNG seeded from the given seed via splitmix64, which
// guarantees a well-mixed internal state even for small or sequential seeds.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent child generator from r. The child's stream
// is fully determined by r's current state, so a fixed seed still yields a
// reproducible tree of generators.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// Derive returns the generator for stream i of the given seed. Unlike
// Split, which consumes parent state and therefore ties each child to the
// sequential order of Split calls, Derive is index-addressable: the stream
// depends only on (seed, i), so workers can draw streams for arbitrary
// indices in any order — the foundation of deterministic parallel fleet
// generation. The (seed, i) pair is mixed through a splitmix64-style
// finalizer (Weyl increment by the golden ratio, then two xor-multiply
// rounds) before seeding the xoshiro state, so adjacent indices yield
// decorrelated streams.
func Derive(seed, i uint64) *RNG {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return New(z ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the xoshiro256** stream.
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

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate using the Box-Muller
// transform (polar form avoided for simplicity; tails are fine for our use).
func (r *RNG) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Poisson returns a Poisson variate with the given mean. For large means it
// uses a normal approximation, which is accurate enough for the CE-count
// processes simulated here.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := mean + math.Sqrt(mean)*r.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 { // defensive bound; unreachable for mean <= 64
			return k
		}
	}
}

// Categorical samples an index from the (unnormalized, non-negative)
// weights. It panics if weights is empty or sums to zero.
func (r *RNG) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("xrand: negative categorical weight")
		}
		total += w
	}
	if len(weights) == 0 || total == 0 {
		panic("xrand: empty or zero-sum categorical weights")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
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

// Shuffle permutes the n elements addressed by swap in place.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// LogNormal returns exp(mu + sigma*Z).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// SampleWithoutReplacement returns k distinct values from [0, n) in random
// order. It panics if k > n.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("xrand: sample size exceeds population")
	}
	p := r.Perm(n)
	return p[:k]
}
