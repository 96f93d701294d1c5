package sim

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/cache"
	"repro/internal/core"
)

// This file implements the heterogeneity regime: per-node cache sizes
// M_u and service capacities C_u drawn from a CacheProfile, and — under
// HeteroArrival — genuinely new nodes joining the network mid-trial.
// Everything is driven from a dedicated xrand namespace (Split(8)), so
// enabling heterogeneity perturbs no other stream: the placement,
// request, origin, file, assignment, churn and fault schedules of a
// trial are unchanged draw for draw.
//
// Capacities feed the load comparison, not the accounting: strategies
// compare load/C_u via a ballsbins.WeightedLoads view over the raw load
// vector (integer-exact — multipliers are capMultLCM/C_u with capMultLCM
// the LCM of the admissible capacity range), while writes, MaxLoad and
// the per-trial summaries stay on raw request counts. The uniform
// profile has C_u ≡ 1 and installs no view at all, which is what makes
// the degenerate configuration (Hetero on, ProfileUniform) bit-identical
// to HeteroNone.
//
// Vacancy and liveness are orthogonal: a vacant node (HeteroArrival's
// not-yet-joined state) is up but caches nothing — it appears in no S_j,
// so no strategy can route to it, and it can still serve backhaul
// traffic at its own attached users. Fault injection may crash and
// recover it like any other node; an arrival event on a crashed node
// simply revives it as it joins.

// HeteroMode selects the node-heterogeneity regime.
type HeteroMode int

const (
	// HeteroNone is the homogeneous paper model: every node caches
	// exactly M files and serves at unit capacity.
	HeteroNone HeteroMode = iota
	// HeteroCapacity draws a per-node cache size M_u and service
	// capacity C_u from Config.Profile once per trial; placements become
	// variable-stride and the two-choices comparison becomes load/C_u.
	HeteroCapacity
	// HeteroArrival is HeteroCapacity plus node arrivals: a random ~25%
	// of nodes start vacant (empty cache) and join mid-trial at rate
	// Config.ArrivalRate, entering the placement, the replica and tile
	// indexes and the strategies' view at the next chunk barrier.
	HeteroArrival
)

var heteroNames = enumNames[HeteroMode]{"HeteroMode", "hetero mode", []string{"none", "capacity", "arrival"}}

// String returns the CLI name.
func (h HeteroMode) String() string { return heteroNames.format(h) }

// CacheProfile selects the per-node (M_u, C_u) distribution used by the
// heterogeneous regimes. Draws come from the dedicated hetero stream in
// node order, one trial at a time.
type CacheProfile int

const (
	// ProfileUniform is the degenerate profile: M_u = M and C_u = 1 for
	// every node, consuming no randomness — with it, HeteroCapacity
	// reproduces the homogeneous engine draw for draw.
	ProfileUniform CacheProfile = iota
	// ProfileTwoTier makes ~25% of nodes "big" (M_u = 2M, C_u = 2) and
	// the rest "small" (M_u = max(1, 2M/3), C_u = 1).
	ProfileTwoTier
	// ProfilePowerLaw draws M_u from a Pareto(α=3/2, x_m=M/3) tail
	// clamped to [1, 8M], with C_u = 1 + ⌊M_u/2M⌋ clamped to [1, 8].
	ProfilePowerLaw
)

var profileNames = enumNames[CacheProfile]{"CacheProfile", "cache profile", []string{"uniform", "two-tier", "power-law"}}

// String returns the CLI name.
func (p CacheProfile) String() string { return profileNames.format(p) }

const (
	// capMultLCM is the common load-view scale: LCM(1..8), divisible by
	// every admissible C_u, so the weighted comparison load·(capMultLCM/C_u)
	// orders exactly like load/C_u with no rounding.
	capMultLCM = 840
	// maxServiceCap bounds C_u (the power-law clamp; two-tier tops out
	// at 2).
	maxServiceCap = 8
	// paretoAlpha is the power-law profile's tail exponent; paretoCap's
	// cube-root form is exact for this value only.
	paretoAlpha = 1.5
	// vacantDenom: under HeteroArrival each node starts vacant with
	// probability 1/vacantDenom (same odds as the two-tier "big" coin).
	vacantDenom = 4
)

// capMult returns the weighted-view multiplier for service capacity c.
func capMult(c int) int32 { return int32(capMultLCM / c) }

// profileMaxCap returns the largest M_u profile p can emit — the
// per-node slot budget EnableHetero sizes the placement arenas with.
func profileMaxCap(p CacheProfile, m int) int {
	switch p {
	case ProfileTwoTier:
		return 2 * m
	case ProfilePowerLaw:
		return 8 * m
	default:
		return m
	}
}

// drawProfile fills caps (M_u) and, for non-uniform profiles, mults
// (capMultLCM/C_u) from rng in node order. ProfileUniform consumes no
// randomness, keeping the hetero stream's schedule identical whether or
// not the degenerate profile is in play.
func drawProfile(cfg Config, caps, mults []int32, rng *rand.Rand) {
	m := cfg.M
	switch cfg.Profile {
	case ProfileUniform:
		for u := range caps {
			caps[u] = int32(m)
		}
	case ProfileTwoTier:
		small := int32(max(1, (2*m)/3))
		for u := range caps {
			if rng.IntN(vacantDenom) == 0 {
				caps[u] = int32(2 * m)
				mults[u] = capMult(2)
			} else {
				caps[u] = small
				mults[u] = capMult(1)
			}
		}
	case ProfilePowerLaw:
		xm := float64(m) / 3
		for u := range caps {
			mu := min(max(paretoCap(xm, rng.Float64()), 1), 8*m)
			caps[u] = int32(mu)
			mults[u] = capMult(min(1+mu/(2*m), maxServiceCap))
		}
	default:
		panic(fmt.Sprintf("sim: unknown cache profile %v", cfg.Profile))
	}
}

// paretoCap returns the power-law capacity for x uniform in [0,1): the
// inverse-CDF Pareto draw round(xm·(1−x)^(−1/α)), which at α = 3/2 is
// round(xm / cbrt((1−x)²)) — a cube root instead of math.Pow. The two
// forms differ by a few ulps, so they can round apart only where the
// value lies within that of a rounding boundary k + 1/2; within a
// relative 1e-9 of one, the math.Pow form decides, so every capacity is
// exactly the math.Pow draw's.
func paretoCap(xm, x float64) int {
	y := 1 - x
	v := xm / math.Cbrt(y*y)
	if math.Abs(v-math.Floor(v)-0.5) <= 1e-9*v {
		v = xm * math.Pow(y, -1/paretoAlpha)
	}
	return int(math.Round(v))
}

// heteroState is the trial state's heterogeneity scratch: the trial's
// capacity vector, weighted-view multipliers, vacancy mask and the
// arrival schedule's fractional-event credit. All arenas are allocated
// once; arming a trial only refills them.
type heteroState struct {
	caps       []int32
	mults      []int32 // nil for ProfileUniform: C_u ≡ 1 needs no view
	vacant     []bool  // nil unless HeteroArrival
	vacantList []int32 // still-vacant nodes, swap-removed on arrival
	credit     float64 // accumulated arrival events (ArrivalRate · requests)
}

// init sizes the arenas for w. No-op shape under HeteroNone (callers
// never init then).
func (hs *heteroState) init(w *World) {
	n := w.g.N()
	hs.caps = make([]int32, n)
	if w.cfg.Profile != ProfileUniform {
		hs.mults = make([]int32, n)
	}
	if w.cfg.Hetero == HeteroArrival {
		hs.vacant = make([]bool, n)
		hs.vacantList = make([]int32, 0, n)
	}
}

// arm draws trial state from rng: the capacity profile first, then —
// under HeteroArrival — one vacancy coin per node, in node order. The
// fixed draw order is what the golden pins rely on.
func (hs *heteroState) arm(w *World, rng *rand.Rand) {
	drawProfile(w.cfg, hs.caps, hs.mults, rng)
	hs.credit = 0
	if hs.vacant == nil {
		return
	}
	hs.vacantList = hs.vacantList[:0]
	for u := range hs.vacant {
		hs.vacant[u] = rng.IntN(vacantDenom) == 0
		if hs.vacant[u] {
			hs.vacantList = append(hs.vacantList, int32(u))
		}
	}
}

// wrapView returns the load view the strategies should compare through:
// inner itself when no capacity skew is in play, or the runner's
// WeightedLoads rebound over inner. Rebinding is in place — no
// allocation on the trial path.
func (r *Runner) wrapView(inner core.LoadReader) core.LoadReader {
	if r.weighted == nil {
		return inner
	}
	r.weighted.Bind(inner, r.heteroSt.mults)
	return r.weighted
}

// applyArrivals advances the arrival schedule past c served requests:
// credit accrues at ArrivalRate events per request, and each whole
// event picks a uniform still-vacant node, stages it in the placer
// (drawing its slab) and revives it if fault injection had crashed it.
// With no vacant nodes left the event is burned as skipped, keeping the
// RNG schedule independent of how fast the network fills up. Nothing
// reads the replica or tile index between events, so the staged nodes
// are spliced into both in one pass at the end, before the caller's
// fault and churn engines read the placement.
func (hs *heteroState) applyArrivals(w *World, placer *cache.Placer, live *cache.Liveness, rng *rand.Rand, c int, events, skipped *int) {
	hs.credit += w.cfg.ArrivalRate * float64(c)
	for ; hs.credit >= 1; hs.credit-- {
		if len(hs.vacantList) == 0 {
			*skipped++
			continue
		}
		i := rng.IntN(len(hs.vacantList))
		u := hs.vacantList[i]
		hs.vacantList[i] = hs.vacantList[len(hs.vacantList)-1]
		hs.vacantList = hs.vacantList[:len(hs.vacantList)-1]
		placer.StageArrival(u, w.placeProfile, w.cfg.PlacementMode, rng)
		if live != nil {
			live.Revive(u)
		}
		*events++
	}
	placer.SpliceArrivals()
}

// finishHetero records trial-end heterogeneity counters.
func (r *Runner) finishHetero(res *Result) {
	if r.w.cfg.Hetero == HeteroArrival {
		res.Vacant = len(r.heteroSt.vacantList)
	}
}
