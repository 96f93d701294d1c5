// Package dist implements the file-popularity distributions that drive
// every experiment in the reproduction: the paper's placement rule caches
// file j on each server with probability proportional to its popularity
// p_j, and the request process of Definition 1 draws files i.i.d. from the
// same profile. Three concrete profiles are provided:
//
//   - Uniform — p_j = 1/K, the paper's simulation setting (§V);
//   - Zipf — p_j ∝ 1/(j+1)^γ, the rank-skewed profile of Theorem 3 /
//     Eq. (1), used for the communication-cost tables;
//   - Custom — arbitrary non-negative weights, normalized; used for
//     conditioned streams (MissResample), replication policies
//     (proportional / square-root / capped placement profiles), and
//     empirical window estimates under popularity drift.
//
// Sampling is the hot path of the whole simulator (one draw per request,
// one draw per cache slot), so the skewed profiles sample through a Walker
// alias table rather than inverse-CDF binary search (O(log K), see CDF,
// kept for benchmarking and verification). An alias draw costs one 64-bit
// generator word and one load from a packed 8-byte-per-column table: the
// word's high half picks the column, exactly uniformly, and its low half
// is the coin (see Alias). A Uniform draw is one bounded IntN.
package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Popularity is a probability distribution over a file library indexed
// 0..K-1. Implementations are immutable after construction and safe for
// concurrent use.
type Popularity interface {
	// K returns the library size.
	K() int
	// P returns the probability of file i. It panics if i is out of
	// [0, K).
	P(i int) float64
	// PMF returns a fresh copy of the full probability mass function.
	PMF() []float64
	// Sample draws one file index according to the distribution.
	Sample(r *rand.Rand) int
	// Name identifies the profile in experiment output.
	Name() string
}

// BatchSampler is implemented by profiles that can fill a whole slice of
// draws in one call. Batch draws consume the RNG exactly as the same
// number of sequential Sample calls would, so the two forms are
// interchangeable bit for bit; the batch form avoids per-draw interface
// dispatch on hot paths (cache placement draws n·M files per trial).
type BatchSampler interface {
	SampleBatch(r *rand.Rand, dst []int32)
}

// SampleBatch fills dst with draws from p, using the profile's batch path
// when it has one and falling back to sequential Sample calls otherwise.
func SampleBatch(p Popularity, r *rand.Rand, dst []int32) {
	if bs, ok := p.(BatchSampler); ok {
		bs.SampleBatch(r, dst)
		return
	}
	for i := range dst {
		dst[i] = int32(p.Sample(r))
	}
}

// Uniform is the equal-popularity profile p_j = 1/K (the paper's
// simulation setting).
type Uniform struct {
	k int
}

// NewUniform returns the Uniform profile over k files. It panics if
// k <= 0.
func NewUniform(k int) Uniform {
	if k <= 0 {
		panic(fmt.Sprintf("dist: need k > 0, got %d", k))
	}
	return Uniform{k: k}
}

// K implements Popularity.
func (u Uniform) K() int { return u.k }

// P implements Popularity.
func (u Uniform) P(i int) float64 {
	if i < 0 || i >= u.k {
		panic(fmt.Sprintf("dist: file %d out of [0,%d)", i, u.k))
	}
	return 1 / float64(u.k)
}

// PMF implements Popularity.
func (u Uniform) PMF() []float64 {
	pmf := make([]float64, u.k)
	p := 1 / float64(u.k)
	for i := range pmf {
		pmf[i] = p
	}
	return pmf
}

// Sample implements Popularity. A uniform draw needs no table: it is a
// single bounded integer draw.
func (u Uniform) Sample(r *rand.Rand) int { return r.IntN(u.k) }

// SampleBatch implements BatchSampler.
func (u Uniform) SampleBatch(r *rand.Rand, dst []int32) {
	for i := range dst {
		dst[i] = int32(r.IntN(u.k))
	}
}

// Name implements Popularity.
func (u Uniform) Name() string { return fmt.Sprintf("uniform(k=%d)", u.k) }

// Zipf is the rank-skewed profile p_j = (j+1)^-γ / H_{K,γ} with
// H_{K,γ} = Σ_{i=1..K} i^-γ (generalized harmonic number), precomputed at
// construction. γ = 0 degenerates to Uniform; larger γ concentrates mass
// on the head of the catalog.
type Zipf struct {
	k     int
	gamma float64
	pmf   []float64
	alias *Alias
}

// NewZipf returns the Zipf(γ) profile over k files with precomputed
// normalization and alias table. It panics if k <= 0 or γ < 0.
func NewZipf(k int, gamma float64) *Zipf {
	if k <= 0 {
		panic(fmt.Sprintf("dist: need k > 0, got %d", k))
	}
	if gamma < 0 || math.IsNaN(gamma) || math.IsInf(gamma, 0) {
		panic(fmt.Sprintf("dist: need finite gamma >= 0, got %v", gamma))
	}
	pmf := make([]float64, k)
	h := 0.0
	for i := range pmf {
		w := math.Pow(float64(i+1), -gamma)
		pmf[i] = w
		h += w
	}
	for i := range pmf {
		pmf[i] /= h
	}
	return &Zipf{k: k, gamma: gamma, pmf: pmf, alias: NewAlias(pmf)}
}

// K implements Popularity.
func (z *Zipf) K() int { return z.k }

// Gamma returns the skew exponent γ.
func (z *Zipf) Gamma() float64 { return z.gamma }

// P implements Popularity.
func (z *Zipf) P(i int) float64 { return z.pmf[i] }

// PMF implements Popularity.
func (z *Zipf) PMF() []float64 { return append([]float64(nil), z.pmf...) }

// Sample implements Popularity via the O(1) alias table.
func (z *Zipf) Sample(r *rand.Rand) int { return z.alias.Sample(r) }

// SampleBatch implements BatchSampler.
func (z *Zipf) SampleBatch(r *rand.Rand, dst []int32) { z.alias.SampleBatch(r, dst) }

// Name implements Popularity.
func (z *Zipf) Name() string { return fmt.Sprintf("zipf(k=%d,g=%.2f)", z.k, z.gamma) }

// Custom is an arbitrary profile built from non-negative weights,
// normalized to sum to one. Files with zero weight are never sampled but
// keep their index, so a Custom profile over the full library can encode
// conditioned streams (e.g. "cached files only").
type Custom struct {
	name  string
	pmf   []float64
	alias *Alias
}

// NewCustom returns the profile proportional to weights. It copies
// weights, so the caller may reuse the slice. It panics if weights is
// empty, contains a negative or non-finite entry, or sums to zero or past
// the float64 range.
func NewCustom(weights []float64, name string) *Custom {
	sum := validWeightSum("NewCustom", weights)
	pmf := make([]float64, len(weights))
	for i, w := range weights {
		pmf[i] = w / sum
	}
	return &Custom{name: name, pmf: pmf, alias: NewAlias(pmf)}
}

// K implements Popularity.
func (c *Custom) K() int { return len(c.pmf) }

// P implements Popularity.
func (c *Custom) P(i int) float64 { return c.pmf[i] }

// PMF implements Popularity.
func (c *Custom) PMF() []float64 { return append([]float64(nil), c.pmf...) }

// Sample implements Popularity via the O(1) alias table.
func (c *Custom) Sample(r *rand.Rand) int { return c.alias.Sample(r) }

// SampleBatch implements BatchSampler.
func (c *Custom) SampleBatch(r *rand.Rand, dst []int32) { c.alias.SampleBatch(r, dst) }

// Name implements Popularity.
func (c *Custom) Name() string { return c.name }

// CustomBuilder rebuilds Custom profiles of a fixed library size into
// preallocated arenas: Build is NewCustom with zero allocations and a bit
// identical result (same normalization order, same alias construction via
// AliasBuilder). The simulation engine uses one per worker to recondition
// the MissResample request stream every trial without reallocating the
// ~K-sized tables. Each Build overwrites the previously returned profile,
// so at most one profile per builder may be live at a time. Not safe for
// concurrent use.
type CustomBuilder struct {
	c  Custom
	ab *AliasBuilder
}

// NewCustomBuilder returns a builder for profiles over k files. It panics
// if k <= 0.
func NewCustomBuilder(k int) *CustomBuilder {
	if k <= 0 {
		panic(fmt.Sprintf("dist: NewCustomBuilder needs k > 0, got %d", k))
	}
	return &CustomBuilder{
		c:  Custom{pmf: make([]float64, k)},
		ab: NewAliasBuilder(k),
	}
}

// K returns the library size the builder was sized for.
func (b *CustomBuilder) K() int { return len(b.c.pmf) }

// Build constructs the profile proportional to weights (same contract as
// NewCustom) into the builder's arenas and returns it. The returned
// profile aliases the builder's memory: the next Build invalidates it. It
// panics if len(weights) differs from the builder's size.
func (b *CustomBuilder) Build(weights []float64, name string) *Custom {
	if len(weights) != len(b.c.pmf) {
		panic(fmt.Sprintf("dist: CustomBuilder sized for k=%d, got %d weights", len(b.c.pmf), len(weights)))
	}
	sum := validWeightSum("NewCustom", weights)
	for i, w := range weights {
		b.c.pmf[i] = w / sum
	}
	b.c.alias = b.ab.Build(b.c.pmf)
	b.c.name = name
	return &b.c
}

// validWeightSum enforces the shared weight contract of every
// constructor that consumes raw weights (NewCustom, NewAlias, NewCDF):
// non-empty, every entry non-negative and finite, a finite positive
// total. It returns the total and panics (naming the caller) on
// violation.
func validWeightSum(caller string, weights []float64) float64 {
	if len(weights) == 0 {
		panic("dist: " + caller + " needs at least one weight")
	}
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic(fmt.Sprintf("dist: %s: invalid weight %v at %d", caller, w, i))
		}
		sum += w
	}
	if sum <= 0 {
		panic("dist: " + caller + " weights sum to zero")
	}
	if math.IsInf(sum, 1) {
		panic("dist: " + caller + " weights overflow float64: their sum is +Inf")
	}
	return sum
}
