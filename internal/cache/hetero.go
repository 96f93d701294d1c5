package cache

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/dist"
)

// This file implements node arrival — the cache layer of the engine's
// HeteroArrival regime. A vacant node (placed empty by SetHetero's
// vacancy mask) joins the network mid-trial: its forward slab is filled
// with a fresh draw from the placement profile and every derived
// structure is rebuilt in place. Arrivals are the one mutation that
// grows replica segments (|S_j| is invariant under ReplaceReplica and
// SwapReplicas, which is what lets those splice), so the replica CSR and
// the tile index cannot be spliced here — they are rebuilt into the same
// arenas, which EnableHetero budgeted for the worst case. Rebuild cost
// is O(Σ M_u), the cost of the scatter passes of a from-scratch build;
// the engine triggers at most a handful of arrivals per trial, all at
// chunk barriers.

// ArriveNode fills vacant node u with up to Cap(u) files drawn from pop
// (the same per-node draw a from-scratch build performs) and rebuilds
// the replica CSR — and, when present, the tile index — in place. The
// capacity-padded tile directories are re-padded to the grown segment
// widths (see buildTileIndex), which is the rebuild half of the
// grow-or-rebuild contract asserted by the replaceReplica overflow
// panic. Allocation-free; the Placement and TileIndex pointers returned
// by the preceding Place stay valid because the rebuild rewrites their
// backing arrays. It panics unless the Placer is hetero- and
// churn-enabled and node u is currently empty.
func (pl *Placer) ArriveNode(u int32, pop dist.Popularity, mode Mode, r *rand.Rand) {
	p := &pl.p
	if !pl.hetero {
		panic("cache: ArriveNode needs EnableHetero")
	}
	if !p.sorted {
		panic("cache: ArriveNode needs a churn-enabled placement (Placer.EnableChurn)")
	}
	if p.lens[u] != 0 {
		panic(fmt.Sprintf("cache: ArriveNode: node %d is not vacant (t=%d)", u, p.lens[u]))
	}
	base, want := p.slabBase(int(u)), p.Cap(int(u))
	ln := 0
	switch mode {
	case WithReplacement:
		span := pl.draws[base : base+want]
		dist.SampleBatch(pop, r, span)
		ln = pl.dedup(base, span)
	case WithoutReplacement:
		ln = pl.drawDistinct(base, want, pop, r)
	default:
		panic(fmt.Sprintf("cache: unknown mode %v", mode))
	}
	pl.setLen(int(u), ln)
	if pl.vacant != nil {
		pl.vacant[u] = false
	}
	pl.buildReplicaIndex()
	if pl.tiling != nil {
		pl.buildTileIndex()
	}
}
