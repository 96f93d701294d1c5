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
// Arenas are allocated once — by newTrialState, the id arena by
// NewRunner, the look-ahead arenas by readyAhead and the chunk views by
// sizeViews — and arm only refills them, so a Runner's steady-state
// trials allocate nothing here.
type trialState struct {
	w      *World
	placer *cache.Placer
	p      *cache.Placement // the armed trial's placement
	live   *cache.Liveness  // nil unless the world runs a fault process
	pop    dist.Popularity  // request file sampler, conditioned by arm

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

	// Request ids, on a Runner's states only (see draw and ids): the
	// arena the sequential trial loop reads its chunks from, how many of
	// the armed trial's ids were drawn into it ahead, and the trial's
	// origin and file streams, positioned after the last id drawn.
	reqOrigins, reqFiles []int32
	drawn                int
	origin, file         reseedRand

	// Look-ahead plans (lookahead.go), nil until the state is first
	// armed ahead: the candidate walks of the armed trial's first
	// requests, and the strategy instance that walked them.
	plans   *core.Plans
	planner *core.TwoChoice

	// The trial's Result as far as it is known before its requests run:
	// the armed placement's uncached count, set by arm, plus the event
	// counters of the barriers applied ahead.
	res Result

	// Barriers applied ahead (lookahead.go), on a Runner's states only:
	// views[k] holds the placement and liveness mask chunk k runs on, for
	// k < barriersAhead, while p and live are past barrier barriersAhead;
	// crashed logs the nodes those barriers crashed, in order. views is
	// nil until the state's first job ahead.
	views         []chunkView
	barriersAhead int
	crashed       []int32
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
// of Place, which reads them), the placement, the request file sampler
// conditioned on it, the churn and fault schedules rewound to their
// trial-start state on their own streams, and the trial's Result with
// the placement's uncached count — before any barrier, applied ahead or
// not, caches a joining node's files — and no barrier applied ahead.
func (st *trialState) arm(t uint64) {
	w := st.w
	if w.cfg.Hetero != HeteroNone {
		st.heteroSt.arm(w, st.hetero.stream(w.heteroSrc, t))
		st.placer.SetHetero(st.heteroSt.caps, st.heteroSt.vacant)
	}
	st.p = st.placer.Place(w.placeProfile, w.cfg.PlacementMode, st.place.stream(w.placeSrc, t))
	st.res = Result{Requests: w.nReq, Uncached: st.p.UncachedCount()}
	st.barriersAhead, st.crashed = 0, st.crashed[:0]
	st.condition()
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

// condition sets the request file distribution for the armed placement
// under the miss policy: under MissResample the stream is conditioned on
// the files cached somewhere in the network. Churn preserves the cached
// set and MissResample admits no arrivals, so one build serves the whole
// trial or era.
func (st *trialState) condition() {
	w := st.w
	st.pop = w.pop
	if w.cfg.MissPolicy != MissResample || st.p.UncachedCount() == 0 {
		return
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
}

// draw seeds trial t's origin and file streams and draws the trial's
// first n request ids into the id arena: none on the synchronous path,
// the whole trial or a whole number of chunks when the state is armed
// ahead (see ids). It drops the plans of an earlier trial.
func (st *trialState) draw(t uint64, n int) {
	w := st.w
	st.origin.stream(w.originSrc, t)
	st.file.stream(w.fileSrc, t)
	if st.drawn = n; n > 0 {
		dist.RequestBatch(st.origin.r, st.file.r, w.g.N(), st.pop, st.reqOrigins[:n], st.reqFiles[:n])
	}
	if st.plans != nil {
		st.plans.Reset()
	}
}

// ids returns the request ids of the chunk [base, base+c): a view of the
// ids drawn ahead, or, past them, the chunk drawn now into the arena's
// head, whose ids the trial has consumed. RequestBatch draws every origin
// and then every file of a batch, each from its own stream, so any batch
// partition of a trial draws the same ids.
func (st *trialState) ids(base, c int) (origins, files []int32) {
	if base+c <= st.drawn {
		return st.reqOrigins[base : base+c], st.reqFiles[base : base+c]
	}
	origins, files = st.reqOrigins[:c], st.reqFiles[:c]
	dist.RequestBatch(st.origin.r, st.file.r, st.w.g.N(), st.pop, origins, files)
	return origins, files
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
	return st.bindTo(cur, st.p, st.live)
}

// bindTo is bind to placement p and liveness mask live (nil without a
// fault process): the state's own, or a chunk view's (bindChunk).
func (st *trialState) bindTo(cur core.Strategy, p *cache.Placement, live *cache.Liveness) core.Strategy {
	if rb, ok := cur.(core.Rebindable); ok {
		rb.Rebind(p)
	} else {
		cur = buildStrategy(st.w.cfg, st.w.g, p)
	}
	if live != nil {
		cur.(core.LivenessAware).SetLiveness(live)
	}
	return cur
}
