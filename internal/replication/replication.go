// Package replication provides alternative cache content placement
// policies beyond the paper's proportional rule, expressed as weight
// transformations of the popularity profile:
//
//   - Proportional — the paper's baseline: cache i.i.d. ∝ p_j;
//   - SquareRoot — ∝ √p_j, the classic optimum for search/replication
//     trade-offs in unstructured networks (Cohen & Shenker);
//   - Uniform — ignore popularity entirely (every file equally likely);
//   - Capped — proportional but with per-file replica mass capped, the
//     mitigation Example 2 motivates (low-replication files strangle the
//     power of two choices).
//
// Each policy yields a dist.Popularity that cache.Place consumes, so all
// existing strategies, engines and experiments compose with it unchanged.
package replication

import (
	"fmt"
	"math"

	"repro/internal/dist"
)

// Policy transforms a popularity profile into a placement profile.
type Policy int

// Placement policies.
const (
	// Proportional caches ∝ p_j (the paper's model).
	Proportional Policy = iota
	// SquareRoot caches ∝ √p_j.
	SquareRoot
	// UniformPlace caches every file with equal probability.
	UniformPlace
	// Capped caches ∝ min(p_j, cap) with the cap chosen so no file
	// expects more than capFactor× the mean replica mass.
	Capped
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Proportional:
		return "proportional"
	case SquareRoot:
		return "sqrt"
	case UniformPlace:
		return "uniform"
	case Capped:
		return "capped"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// DefaultCapFactor bounds any file's placement mass to 4× the mean under
// the Capped policy.
const DefaultCapFactor = 4.0

// PlacementProfile derives the distribution used to fill cache slots from
// the request popularity under the given policy. capFactor is only used by
// Capped (pass 0 for DefaultCapFactor).
func PlacementProfile(pop dist.Popularity, policy Policy, capFactor float64) dist.Popularity {
	k := pop.K()
	switch policy {
	case Proportional:
		return pop
	case SquareRoot:
		w := make([]float64, k)
		for j := 0; j < k; j++ {
			w[j] = math.Sqrt(pop.P(j))
		}
		return dist.NewCustom(w, pop.Name()+"|sqrt")
	case UniformPlace:
		return dist.NewUniform(k)
	case Capped:
		if capFactor <= 0 {
			capFactor = DefaultCapFactor
		}
		cap := capFactor / float64(k)
		w := make([]float64, k)
		for j := 0; j < k; j++ {
			w[j] = math.Min(pop.P(j), cap)
		}
		return dist.NewCustom(w, fmt.Sprintf("%s|cap%.1f", pop.Name(), capFactor))
	default:
		panic(fmt.Sprintf("replication: unknown policy %v", policy))
	}
}

// MinExpectedReplicas returns the smallest expected replica count
// n·M·q_j over files, a proxy for the Example 2 bottleneck (files whose
// few replicas must absorb Θ(log n/ log log n) requests).
func MinExpectedReplicas(place dist.Popularity, n, m int) float64 {
	minQ := math.Inf(1)
	for j := 0; j < place.K(); j++ {
		if q := place.P(j); q < minQ {
			minQ = q
		}
	}
	return float64(n) * float64(m) * minQ
}

// LoadSkew estimates the expected per-replica demand skew: the max over
// files of p_j / q_j (request mass per unit of placement mass). Uniform
// placement of a skewed catalog has high skew; proportional placement has
// skew exactly 1.
func LoadSkew(pop, place dist.Popularity) float64 {
	if pop.K() != place.K() {
		panic("replication: profile size mismatch")
	}
	skew := 0.0
	for j := 0; j < pop.K(); j++ {
		q := place.P(j)
		if q == 0 {
			if pop.P(j) > 0 {
				return math.Inf(1)
			}
			continue
		}
		if s := pop.P(j) / q; s > skew {
			skew = s
		}
	}
	return skew
}
