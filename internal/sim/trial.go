package sim

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
)

// trialState is the per-trial mutable state of the paper's process —
// one placement phase, then requests with the chunk-barrier mutations
// in between — and the only code that arms, advances and binds it. The
// batch Runner embeds one and re-arms it every trial; a served Snapshot
// is one armed once for its era. Both therefore build the same
// placement from the same streams and apply the same barrier sequence,
// which is what lets a served era replay its batch trial exactly.
//
// Arenas are allocated once by newTrialState; arm only refills them, so
// a Runner's steady-state trials allocate nothing here.
type trialState struct {
	w      *World
	placer *cache.Placer
	p      *cache.Placement // the armed trial's placement
	live   *cache.Liveness  // nil unless the world runs a fault process
	pop    dist.Popularity  // request file sampler, set by fileSampler

	heteroSt heteroState
	churnSt  churnState
	faultSt  faultState

	// Per-trial streams. The hetero stream draws the capacity profile and
	// vacancies, then (HeteroArrival) the era's arrivals. A stream is
	// derived only when its process is on, so a world without it stays
	// bit-identical to the engine before that process existed.
	place, hetero, churn, fault reseedRand

	// MissResample conditioning arenas (weights + CustomBuilder), sized on
	// first use; rebuilding into them samples bit-identically to a fresh
	// dist.NewCustom.
	weights []float64
	cond    *dist.CustomBuilder
}

// newTrialState allocates the trial-state arenas of w: a Placer with
// heterogeneous capacities when configured, the tile index when the
// strategy is indexed, and sorted node lists exactly when the world
// mutates placements mid-trial (churn or arrivals), whose in-place
// splices keep them in order; the hetero and churn scratch; and the
// liveness mask under a fault process. The value must reach its owner
// before arm: a reseedRand that has streamed must not be copied.
func (w *World) newTrialState() trialState {
	st := trialState{w: w, placer: cache.NewPlacer(w.g.N(), w.cfg.M, w.cfg.K)}
	// Hetero first: EnableTiles sizes its arenas off the per-node slot
	// budget EnableHetero installs.
	if w.cfg.Hetero != HeteroNone {
		st.placer.EnableHetero(profileMaxCap(w.cfg.Profile, w.cfg.M))
		st.heteroSt.init(w)
	}
	if w.tiling != nil {
		st.placer.EnableTiles(w.tiling)
	}
	if w.cfg.Churn != ChurnNone || w.cfg.Hetero == HeteroArrival {
		st.placer.EnableChurn()
	}
	if w.cfg.Churn != ChurnNone {
		st.churnSt.init(w)
		// Churn must not target vacant nodes: a not-yet-arrived node has
		// no cache to receive migrated replicas.
		st.churnSt.vacant = st.heteroSt.vacant
	}
	if w.cfg.Faults != FaultsNone {
		st.live = cache.NewLiveness(w.g.N())
		if w.tiling != nil {
			// Share the index tiling so the tile walks can skip fully dead
			// tiles through the per-tile live counts.
			st.live.BindTiling(w.tiling)
		}
	}
	return st
}

// arm prepares trial t: the capacity profile and vacancy pattern (ahead
// of Place, which reads them), the placement, and the churn and fault
// schedules rewound to their trial-start state on their own streams.
func (st *trialState) arm(t uint64) {
	w := st.w
	if w.cfg.Hetero != HeteroNone {
		st.heteroSt.arm(w, st.hetero.stream(w.heteroSrc, t))
		st.placer.SetHetero(st.heteroSt.caps, st.heteroSt.vacant)
	}
	st.p = st.placer.Place(w.placeProfile, w.cfg.PlacementMode, st.place.stream(w.placeSrc, t))
	if w.cfg.Churn != ChurnNone {
		st.churn.stream(w.churnSrc, t)
		st.churnSt.reset()
	}
	if st.live != nil {
		st.live.Reset()
		st.faultSt.reset()
		st.fault.stream(w.faultSrc, t)
	}
}

// fileSampler sets and returns the request file distribution for the
// armed placement under the miss policy: under MissResample the stream
// is conditioned on the files cached somewhere in the network. Churn
// preserves the cached set and MissResample admits no arrivals, so one
// build serves the whole trial or era.
func (st *trialState) fileSampler() dist.Popularity {
	w := st.w
	st.pop = w.pop
	if w.cfg.MissPolicy != MissResample || st.p.UncachedCount() == 0 {
		return st.pop
	}
	if st.weights == nil {
		st.weights = make([]float64, w.cfg.K)
		st.cond = dist.NewCustomBuilder(w.cfg.K)
	} else {
		clear(st.weights)
	}
	for _, j := range st.p.CachedFiles() {
		st.weights[j] = w.pop.P(int(j))
	}
	st.pop = st.cond.Build(st.weights, w.condName)
	return st.pop
}

// advance applies the mutations accrued by c requests — arrivals, then
// faults, then churn, counting each into res. It is one chunk barrier
// of a batch trial and one Snapshot.Advance of a served era. loadOf
// reads a node's load at its crash instant for Result.DeadLoad; nil
// skips that account. No request stream is touched.
func (st *trialState) advance(c int, loadOf func(int32) int, res *Result) {
	w := st.w
	if w.cfg.Hetero == HeteroArrival {
		st.heteroSt.applyArrivals(w, st.placer, st.live, st.hetero.r, c, &res.ArrivalEvents, &res.ArrivalSkipped)
	}
	if st.live != nil {
		st.faultSt.apply(w, st.live, st.fault.r, c, loadOf, res)
	}
	if w.cfg.Churn != ChurnNone {
		st.churnSt.apply(w, st.p, st.churn.r, c, &res.ChurnEvents, &res.ChurnSkipped)
	}
}

// bind returns cur rebound to the armed placement — or a fresh strategy
// over it when cur is nil or cannot rebind (all built-ins can) — with
// the liveness mask bound in under a fault process.
func (st *trialState) bind(cur core.Strategy) core.Strategy {
	if rb, ok := cur.(core.Rebindable); ok {
		rb.Rebind(st.p)
	} else {
		cur = buildStrategy(st.w.cfg, st.w.g, st.p)
	}
	if st.live != nil {
		cur.(core.LivenessAware).SetLiveness(st.live)
	}
	return cur
}
