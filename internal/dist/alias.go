package dist

import (
	"fmt"
	"math/rand/v2"
)

// Alias is a Walker/Vose alias table: after O(K) construction it draws
// from an arbitrary discrete distribution in O(1) — one 64-bit word from
// the generator and one table load per draw, independent of K. It is the
// hot-path sampler behind Zipf and Custom; CDF is the O(log K) alternative
// kept for verification and benchmarks.
//
// Construction follows Vose's stable two-worklist formulation: columns are
// scaled to mean 1 and split into "small" (< 1) and "large" (≥ 1); each
// small column is topped up by an alias into a large one.
//
// Each column is packed into one uint64 (8 bytes a column): the high half
// is the column's coin threshold t in units of 2⁻³², the low half its
// alias column. A draw takes one word x. Its high 32 bits pick the column
// j = ⌊hi·K / 2³²⌋ by multiply-shift, with Lemire's exact rejection: a
// word whose product lands in the reject zone is dropped and a fresh word
// supplies both column and coin, so every column has probability exactly
// 1/K. Its low 32 bits are the coin: the draw is j when lo < t and j's
// alias otherwise. A file therefore has probability
// (1/K)·(t_i·2⁻³² + Σ_{j: alias_j = i} (1 − t_j·2⁻³²)), within
// (1 + #aliasing columns)·2⁻³²/K of its weight share up to the float
// construction's residue. t is 0 exactly when the file's weight is 0, so
// a file is drawable iff its weight is positive. K must fit in an int32.
type Alias struct {
	cols []uint64 // per column: coin threshold << 32 | alias column
	zone uint32   // Lemire's reject zone: low product halves below 2³² mod K
}

// fullColumn is the coin threshold of a column that keeps all its mass:
// with the column as its own alias, every coin returns it.
const fullColumn = 1<<32 - 1

// NewAlias builds the table from probs, which must be non-empty with
// non-negative finite entries and a finite positive sum. probs need not
// be normalized; it is copied, so the caller may reuse the slice.
func NewAlias(probs []float64) *Alias {
	n := len(probs)
	a := &Alias{cols: make([]uint64, n)}
	fillAlias(a, probs, make([]float64, n), make([]int32, 0, n), make([]int32, 0, n))
	return a
}

// fillAlias runs Vose's construction into a's (pre-sized) table using the
// provided scratch. It is the single construction path shared by NewAlias
// and AliasBuilder, so arena-built and freshly allocated tables are bit
// identical — same summation order, same scaling, same worklist order.
func fillAlias(a *Alias, probs []float64, scaled []float64, small, large []int32) {
	n := len(probs)
	sum := validWeightSum("NewAlias", probs)
	a.zone = -uint32(n) % uint32(n) // 2³² mod K

	// Scale so the mean column height is exactly 1.
	scale := float64(n) / sum
	for i, p := range probs {
		scaled[i] = p * scale
	}

	for i := n - 1; i >= 0; i-- {
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]

		a.cols[s] = coinThreshold(scaled[s], probs[s] > 0)<<32 | uint64(l)
		// The donor loses the mass it lent to column s.
		scaled[l] = (scaled[l] + scaled[s]) - 1
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers are 1 up to floating-point residue.
	for _, i := range large {
		a.cols[i] = fullColumn<<32 | uint64(i)
	}
	for _, i := range small {
		a.cols[i] = fullColumn<<32 | uint64(i)
	}
}

// coinThreshold quantizes a column height h ∈ [0, 1) to the nearest
// multiple of 2⁻³². A file of positive weight gets at least 1 and at most
// 2³² − 1; a file of zero weight (whose height is 0) gets 0. Rounding and
// clamping each move under 2⁻³² of the column's mass.
func coinThreshold(h float64, positive bool) uint64 {
	if !positive {
		return 0
	}
	return min(max(uint64(h*(1<<32)+0.5), 1), fullColumn)
}

// AliasBuilder rebuilds alias tables of a fixed support size into
// preallocated arenas. Build produces tables bit-identical to NewAlias with
// zero allocations, so hot paths that recondition a distribution every
// trial (the MissResample request stream) can rebuild instead of
// reallocate. Each Build overwrites the previously returned table, so at
// most one table per builder may be live at a time. Not safe for
// concurrent use.
type AliasBuilder struct {
	out          Alias
	scaled       []float64
	small, large []int32
}

// NewAliasBuilder returns a builder for k-column tables. It panics if
// k <= 0.
func NewAliasBuilder(k int) *AliasBuilder {
	if k <= 0 {
		panic(fmt.Sprintf("dist: NewAliasBuilder needs k > 0, got %d", k))
	}
	return &AliasBuilder{
		out:    Alias{cols: make([]uint64, k)},
		scaled: make([]float64, k),
		small:  make([]int32, 0, k),
		large:  make([]int32, 0, k),
	}
}

// K returns the support size the builder was sized for.
func (b *AliasBuilder) K() int { return len(b.out.cols) }

// Build constructs the table for probs (same contract as NewAlias) into
// the builder's arenas and returns it. The returned table aliases the
// builder's memory: the next Build invalidates it. It panics if len(probs)
// differs from the builder's size.
func (b *AliasBuilder) Build(probs []float64) *Alias {
	if len(probs) != len(b.out.cols) {
		panic(fmt.Sprintf("dist: AliasBuilder sized for k=%d, got %d weights", len(b.out.cols), len(probs)))
	}
	fillAlias(&b.out, probs, b.scaled, b.small[:0], b.large[:0])
	return &b.out
}

// K returns the support size.
func (a *Alias) K() int { return len(a.cols) }

// Sample draws one index in O(1).
func (a *Alias) Sample(r *rand.Rand) int {
	x := r.Uint64()
	for a.rejects(x) {
		x = r.Uint64()
	}
	return int(a.pick(x))
}

// SampleBatch fills dst with independent draws. It consumes the RNG in
// exactly the same order as len(dst) sequential Sample calls, so batched
// and one-at-a-time sampling are interchangeable bit for bit; the batch
// form exists to keep the table hot in cache and avoid the per-draw
// interface dispatch on the placement fast path.
func (a *Alias) SampleBatch(r *rand.Rand, dst []int32) {
	for i := range dst {
		x := r.Uint64()
		for a.rejects(x) {
			x = r.Uint64()
		}
		dst[i] = a.pick(x)
	}
}

// rejects reports whether word x lies in Lemire's reject zone.
func (a *Alias) rejects(x uint64) bool {
	return uint32((x>>32)*uint64(len(a.cols))) < a.zone
}

// pick maps an accepted word x to a file; the coin selects without a
// branch.
func (a *Alias) pick(x uint64) int32 {
	j := (x >> 32) * uint64(len(a.cols)) >> 32
	c := a.cols[j]
	if uint32(x) >= uint32(c>>32) {
		j = uint64(uint32(c))
	}
	return int32(j)
}

// CDF samples by inverse transform over the cumulative distribution with
// binary search: O(K) construction, O(log K) per draw. It exists as the
// baseline the alias method is benchmarked against and as an independent
// implementation for cross-checking Alias in tests.
type CDF struct {
	cum []float64
}

// NewCDF builds the cumulative table from probs (same contract as
// NewAlias: non-empty, non-negative, finite positive sum; need not be
// normalized).
func NewCDF(probs []float64) *CDF {
	n := len(probs)
	sum := validWeightSum("NewCDF", probs)
	cum := make([]float64, n)
	acc := 0.0
	for i, p := range probs {
		acc += p
		cum[i] = acc / sum
	}
	cum[n-1] = 1 // guard against residue leaving the tail unreachable
	return &CDF{cum: cum}
}

// K returns the support size.
func (c *CDF) K() int { return len(c.cum) }

// Sample draws one index in O(log K).
func (c *CDF) Sample(r *rand.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(c.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
