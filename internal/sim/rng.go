package sim

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand with the distributions the simulator needs and a
// deterministic fork mechanism, so each subsystem (noise, workload
// generation, scheduling) draws from an independent stream derived from one
// master seed. Forked streams are stable across runs and insensitive to the
// order in which *other* streams are consumed.
type RNG struct {
	r *rand.Rand
	// seed retained so Fork can derive child seeds deterministically.
	seed int64
}

// NewRNG returns a source seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed)), seed: seed}
}

// Fork derives an independent stream for the named subsystem. The child
// seed mixes the parent seed with a hash of the label, so adding a new
// consumer does not perturb existing streams.
func (g *RNG) Fork(label string) *RNG {
	return NewRNG(ForkSeed(g.seed, label))
}

// ForkSeed returns the child seed Fork(label) would derive from a stream
// seeded with parent. Warm-run reuse calls it to Reseed an existing child
// stream in place instead of allocating a fresh fork.
func ForkSeed(parent int64, label string) int64 {
	return int64(splitmix64(uint64(parent) ^ fnv64(label)))
}

// Reseed rewinds the stream to the state NewRNG(seed) starts in, reusing
// the underlying generator. After Reseed the draw sequence is identical to
// a freshly constructed stream's.
func (g *RNG) Reseed(seed int64) {
	g.r.Seed(seed)
	g.seed = seed
}

// fnv64 is the FNV-1a hash of s.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// splitmix64 is the finalizer from the SplitMix64 generator; it decorrelates
// nearby seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Exp returns an exponential sample with the given mean.
func (g *RNG) Exp(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Normal returns a normal sample with the given mean and standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// LogNormal returns a sample whose logarithm is Normal(mu, sigma). With
// mu = -sigma²/2 the sample has mean 1, which is how multiplicative noise
// factors are drawn.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// Noise is the (μ, σ) of a mean-1 lognormal jitter with a fixed
// coefficient of variation, computed once so repeated draws skip the
// logarithm and square root. The zero value draws nothing and returns 1.
type Noise struct {
	mu, sigma float64
	on        bool
}

// NewNoise returns the jitter parameters for coefficient of variation cv;
// cv ≤ 0 disables the jitter.
func NewNoise(cv float64) Noise {
	if cv <= 0 {
		return Noise{}
	}
	sigma2 := math.Log(1 + cv*cv)
	return Noise{mu: -sigma2 / 2, sigma: math.Sqrt(sigma2), on: true}
}

// NoiseFrom draws one mean-1 lognormal jitter with parameters n. A disabled
// n returns exactly 1 without consuming the stream.
func (g *RNG) NoiseFrom(n Noise) float64 {
	if !n.on {
		return 1
	}
	return g.LogNormal(n.mu, n.sigma)
}

// NoiseFactor returns a mean-1 multiplicative lognormal jitter with the
// given coefficient of variation cv. cv = 0 returns exactly 1.
func (g *RNG) NoiseFactor(cv float64) float64 {
	return g.NoiseFrom(NewNoise(cv))
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Roulette draws index i with probability weights[i]/Σweights. Non-positive
// weights are treated as zero. If all weights are non-positive it falls back
// to a uniform draw, which keeps the ACO assigner alive when pheromones
// collapse. It panics on an empty slice.
func (g *RNG) Roulette(weights []float64) int {
	if len(weights) == 0 {
		panic("sim: Roulette over empty weights")
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return g.r.Intn(len(weights))
	}
	x := g.r.Float64() * total
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

// Shuffle permutes the first n indices, calling swap as rand.Shuffle does.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
