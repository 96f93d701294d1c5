package sim

import (
	"math/rand/v2"
	"slices"

	"repro/internal/cache"
	"repro/internal/dist"
	"repro/internal/workload"
)

// The churn phase of the request pipeline (§VI dynamic regime): after a
// chunk of requests is assigned and accounted, the placement mutates
// through cache.ReplaceReplica and cache.SwapReplicas before the next
// chunk is generated, so the strategies always observe a fully
// consistent placement and tile index — mutations never interleave with
// candidate enumeration.
//
// Events are scheduled by a fractional credit accumulator (ChurnRate
// expected events per request, exact over the trial) and drawn from a
// dedicated per-trial churn stream (xrand namespace 6), making the
// discipline a seeded process independent of the placement and request
// streams: ChurnNone never consumes it and stays bit-identical to the
// pre-churn engine. An event migrates one replica to a uniform
// destination — a plain cache.ReplaceReplica when the destination has a
// free slot, a cache.SwapReplicas exchange (displacing a uniform
// resident back to the source) when it is full, which is the common
// shape in the K ≫ M regime. Infeasible events — the destination equals
// the source or already caches the file, or the displaced file is
// already at the source — are dropped and counted in
// Result.ChurnSkipped. Either way |S_j| and the cached-file set are
// invariant (see cache.ReplaceReplica), and the whole path is
// allocation-free at steady state. Each event addresses the primitives
// by what its draw and its feasibility searches found — the replica's
// slot in S_j and the forward-list positions — so nothing they found is
// searched for again.
//
// The schedule state lives in churnState, part of the trial state
// (trial.go) that the batch engine's Runner re-arms per trial and
// applies at pipeline-chunk barriers, and that the served mode's
// sim.Snapshot applies between request batches (see snapshot.go and
// internal/serve).

// churnState is the churn-schedule state of one mutable placement: the
// fractional event credit carried between applications and, for
// ChurnDrift, the shot-noise drifter plus the arenas its conditioned
// file sampler is rebuilt into (CustomBuilder reuse keeps the churn
// path allocation-free).
type churnState struct {
	credit       float64
	drift        *workload.Drifter
	driftWeights []float64
	driftCond    *dist.CustomBuilder
	driftPop     dist.Popularity
	// driftCached is the cached-file count at the sampler's last build.
	// Node arrivals cache new files without dirtying the drifter, and
	// churn never changes the cached set, so a changed count is exactly
	// a changed set.
	driftCached int
	// vacant, when non-nil (HeteroArrival), marks nodes that have not yet
	// joined: churn never migrates replicas onto them.
	vacant []bool
}

// init allocates the drift machinery when the world's churn mode needs
// it. Call once per owner; reset() rewinds the state between trials.
func (cs *churnState) init(w *World) {
	if w.cfg.Churn == ChurnDrift {
		cs.drift = workload.NewDrifter(w.cfg.K, churnDriftBoost, churnDriftBirth, churnDriftLifespan)
		cs.driftWeights = make([]float64, w.cfg.K)
		cs.driftCond = dist.NewCustomBuilder(w.cfg.K)
	}
}

// reset rewinds the schedule to its trial-start state: zero credit, a
// fresh drifter epoch, and a sampler rebuild forced on first use.
func (cs *churnState) reset() {
	cs.credit = 0
	if cs.drift != nil {
		cs.drift.Reset()
		cs.driftPop = nil
	}
}

// apply executes the schedule accrued by c elapsed requests against p,
// counting applied migrations into events and infeasible drops into
// skipped. One drifter tick per call: under the batch engine a call is
// one pipeline chunk, under the served mode one mutator batch — each is
// its own seeded process over the shared event mechanics. A placement
// with no replica at all (HeteroArrival before any occupied node joins)
// has nothing to migrate: its events are burned as skipped without a
// draw, as applyArrivals burns events with no vacant node left.
func (cs *churnState) apply(w *World, p *cache.Placement, rng *rand.Rand, c int, events, skipped *int) {
	cs.credit += w.cfg.ChurnRate * float64(c)
	slots := p.ReplicaSlots()
	if cs.drift != nil {
		// One drift tick per application; rebuild the conditioned
		// migration sampler only when the active set or the cached set
		// changed.
		cs.drift.Step(rng)
		if slots > 0 && (cs.driftPop == nil || cs.drift.Dirty() || len(p.CachedFiles()) != cs.driftCached) {
			cs.rebuildDriftSampler(p)
		}
	}
	n := w.g.N()
	for ; cs.credit >= 1; cs.credit-- {
		if slots == 0 {
			*skipped++
			continue
		}
		// The draw names the migrating replica by its slot i in S_j, which
		// the splices reuse instead of searching S_j for it.
		var j, i int
		switch w.cfg.Churn {
		case ChurnReplicas:
			// A uniform index into the flat replica arena is a uniform
			// cached replica: files are hit ∝ |S_j|.
			j, i = p.SlotReplica(rng.IntN(slots))
		case ChurnDrift:
			// Files are hit ∝ drifting popularity (restricted to cached
			// files, so a replica always exists); the migrated replica
			// is uniform within S_j.
			j = cs.driftPop.Sample(rng)
			i = rng.IntN(p.ReplicaCount(j))
		}
		v := int32(rng.IntN(n))
		// One search of v's sorted list decides whether v caches j (true
		// for v = u) and gives j's insertion point for the splice.
		vFiles := p.NodeFiles(int(v))
		at, has := slices.BinarySearch(vFiles, int32(j))
		// A vacant destination (HeteroArrival) must stay empty until its
		// arrival event: its t = 0 would read as a free slot below and the
		// swap branch would sample from an empty file list.
		if has || cs.vacant != nil && cs.vacant[v] {
			*skipped++
			continue
		}
		if len(vFiles) < p.Cap(int(v)) {
			// Destination has a free slot: plain migration.
			p.ReplaceReplica(j, i, v, at)
			*events++
			continue
		}
		// Destination full — the common shape when K ≫ M, where almost
		// every cache holds exactly M distinct files: displace a uniform
		// resident j2 of v back to u (an exchange; both replica counts
		// stay invariant). Skipped only when u already caches j2
		// (probability ≈ M/K), which one search of u's list decides; the
		// exchange's other conditions hold by the draw (u caches j, v
		// caches j2 and not j, so j ≠ j2 and u ≠ v).
		k := rng.IntN(len(vFiles))
		u := p.Replicas(j)[i]
		at2, has2 := slices.BinarySearch(p.NodeFiles(int(u)), vFiles[k])
		if has2 {
			*skipped++
			continue
		}
		p.SwapReplicas(j, i, v, at, k, at2)
		*events++
	}
}

// rebuildDriftSampler reconditions the ChurnDrift file sampler on the
// drifter's instantaneous weights masked to the placement's cached
// files, rebuilt into the state's CustomBuilder arenas (bit-identical
// to a fresh dist.NewCustom, allocation-free after the first build).
func (cs *churnState) rebuildDriftSampler(p *cache.Placement) {
	clear(cs.driftWeights)
	dw := cs.drift.Weights()
	for _, j := range p.CachedFiles() {
		cs.driftWeights[j] = dw[j]
	}
	cs.driftPop = cs.driftCond.Build(cs.driftWeights, "churn-drift")
	cs.driftCached = len(p.CachedFiles())
	cs.drift.ClearDirty()
}
