// Package core implements the paper's primary contribution: the request
// assignment strategies for cache networks.
//
//   - Strategy I, "Nearest Replica" (Definition 2): each request goes to
//     the closest replica of its file; minimum communication cost, but
//     maximum load Θ(log n).
//   - Strategy II, "Proximity-Aware Two Choices" (Definition 3): each
//     request samples two uniform replicas within hop radius r of its
//     origin and joins the lesser-loaded one; for M = n^α, r = n^β with
//     α + 2β ≥ 1 + 2 log log n / log n this achieves maximum load
//     Θ(log log n) at communication cost Θ(r) (Theorem 4).
//
// The package also provides the one-choice-in-radius process and a
// full-information least-loaded oracle as ablation baselines, plus the
// d-choice generalization of Strategy II.
//
// Strategies carry per-instance scratch buffers and are therefore NOT safe
// for concurrent use; the simulation engine keeps one instance per worker
// and rebinds it to each trial's placement (Rebindable). Strategies read
// the bound placement (and its optional tile index) live on every Assign,
// so the engine's churn phase can mutate both between pipeline chunks —
// never during an Assign — and every candidate enumeration observes a
// consistent post-mutation state.
package core

import (
	"math/rand/v2"

	"repro/internal/cache"
	"repro/internal/grid"
)

// Request is one content demand: a file requested at an origin node.
type Request struct {
	Origin int32 // requesting server
	File   int32 // library index of the requested file
}

// Assignment records where a request was served and at what cost.
type Assignment struct {
	Server    int32 // serving node
	Hops      int32 // torus hop distance origin -> server
	Escalated bool  // radius held no replica; search widened to r = ∞
	Backhaul  bool  // file cached nowhere; served at origin from upstream
	Retried   bool  // a dead candidate was rejected and the search resampled
}

// LoadReader is the strategies' read-only view of the running load
// vector. *ballsbins.Loads is the canonical sequential implementation;
// the sharded engine substitutes the vector frozen at the chunk barrier
// (ShardDeterministic) or that vector plus the shard's own adds since
// (ShardOwn) without the strategies knowing which discipline they run
// under.
type LoadReader interface {
	// Load returns the current load of node i.
	Load(i int) int
}

// Strategy maps requests to servers, observing (and updating through the
// caller) the running load vector.
type Strategy interface {
	// Assign chooses the serving node for req given current loads.
	// It must not mutate loads; the caller applies the placement.
	Assign(req Request, loads LoadReader, r *rand.Rand) Assignment
	// Name identifies the strategy in experiment output.
	Name() string
}

// backhaul builds the no-replica-anywhere assignment: the origin fetches
// from upstream (outside the cache network), contributing zero hops inside
// the network but one unit of load at the origin.
func backhaul(req Request) Assignment {
	return Assignment{Server: req.Origin, Hops: 0, Backhaul: true}
}

// assignmentTo fills in the hop count for a chosen server.
func assignmentTo(g *grid.Grid, req Request, server int32, escalated bool) Assignment {
	return Assignment{
		Server:    server,
		Hops:      int32(g.Dist(int(req.Origin), int(server))),
		Escalated: escalated,
	}
}

// LivenessAware is implemented by strategies that can mask dead nodes.
// With a non-nil Liveness bound, every candidate path rejects dead
// servers and walks the graceful-degradation ladder instead: bounded
// resampling among live replicas, then escalation to r = ∞ over the
// live replica set, then backhaul at the origin. Binding nil restores
// the exact liveness-blind behaviour (bit-identical to a strategy that
// was never bound — the golden table pins this).
//
// Like churn, liveness is mutated only between Assign calls (at the
// engine's chunk barriers), so every candidate enumeration observes a
// consistent view.
type LivenessAware interface {
	Strategy
	// SetLiveness binds (or, with nil, unbinds) the liveness mask.
	SetLiveness(lv *cache.Liveness)
}

// Rebindable is implemented by strategies whose placement can be swapped
// between trials while the topology, configuration and scratch buffers are
// kept. The compiled simulation world uses it to run many trials through
// one strategy instance instead of rebuilding it per trial.
type Rebindable interface {
	Strategy
	// Rebind points the strategy at a new placement over the same grid.
	Rebind(p *cache.Placement)
}

// common wires the topology and placement into every concrete strategy.
type common struct {
	g *grid.Grid
	p *cache.Placement
}

func newCommon(g *grid.Grid, p *cache.Placement) common {
	if g.N() != p.N() {
		panic("core: grid and placement disagree on node count")
	}
	return common{g: g, p: p}
}

func (c *common) rebind(p *cache.Placement) {
	if c.g.N() != p.N() {
		panic("core: grid and placement disagree on node count")
	}
	c.p = p
}
