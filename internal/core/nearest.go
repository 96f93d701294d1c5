package core

import (
	"math"
	"math/rand/v2"

	"repro/internal/cache"
	"repro/internal/grid"
)

// NearestReplica is Strategy I (Definition 2): assign each request to the
// closest node caching the file, ties broken uniformly at random.
//
// Two exact search procedures are available and chosen adaptively per
// request (DESIGN.md §4.5):
//
//   - ring search: expand rings d = 0, 1, 2, ... around the origin until a
//     ring contains a replica; expected probes ≈ n/|S_j|;
//   - replica scan: walk the file's replica list computing distances;
//     probes = |S_j|.
//
// The crossover sits at |S_j| ≈ √n. Both return the same distribution
// (property-tested), so the adaptive pick is purely a performance choice.
type NearestReplica struct {
	common
	sqrtN   int
	rings   *grid.RingTable // precomputed ring templates (nil on bounded)
	ringBuf []int32
	tieBuf  []int32
	live    *cache.Liveness // nil = liveness-blind (golden-pinned paths)
	retried bool            // per-Assign: a dead candidate was rejected
}

// NewNearestReplica builds Strategy I over the given topology/placement.
func NewNearestReplica(g *grid.Grid, p *cache.Placement) *NearestReplica {
	return &NearestReplica{
		common: newCommon(g, p),
		sqrtN:  int(math.Sqrt(float64(g.N()))),
		rings:  g.NewRingTable(),
	}
}

// Rebind implements Rebindable: swap the placement, keep scratch and the
// precomputed ring templates.
func (s *NearestReplica) Rebind(p *cache.Placement) { s.common.rebind(p) }

// Name implements Strategy.
func (s *NearestReplica) Name() string { return "nearest-replica" }

// SetLiveness implements LivenessAware: with a mask bound, both search
// procedures skip dead replicas (nearest LIVE replica); a file whose
// replicas are all dead is served by backhaul at the origin.
func (s *NearestReplica) SetLiveness(lv *cache.Liveness) { s.live = lv }

// Assign implements Strategy.
func (s *NearestReplica) Assign(req Request, _ LoadReader, r *rand.Rand) Assignment {
	s.retried = false
	reps := s.p.Replicas(int(req.File))
	if len(reps) == 0 {
		return backhaul(req)
	}
	var server int32
	if len(reps) > s.sqrtN {
		server = s.ringSearch(req, r)
	} else {
		server = s.scanSearch(req, reps, r)
	}
	if server < 0 {
		// Every replica is dead: the cache network cannot serve the file.
		a := backhaul(req)
		a.Retried = s.retried
		return a
	}
	a := assignmentTo(s.g, req, server, false)
	a.Retried = s.retried
	return a
}

// ringSearch expands rings until one contains a replica, then picks
// uniformly among that ring's replicas.
func (s *NearestReplica) ringSearch(req Request, r *rand.Rand) int32 {
	for d := 0; d <= s.g.Diameter(); d++ {
		if s.rings != nil {
			s.ringBuf = s.rings.Ring(int(req.Origin), d, s.ringBuf[:0])
		} else {
			s.ringBuf = s.g.Ring(int(req.Origin), d, s.ringBuf[:0])
		}
		s.tieBuf = s.tieBuf[:0]
		for _, v := range s.ringBuf {
			if s.p.Has(int(v), int(req.File)) {
				if s.live != nil && !s.live.Live(int(v)) {
					s.retried = true
					continue
				}
				s.tieBuf = append(s.tieBuf, v)
			}
		}
		if len(s.tieBuf) > 0 {
			return s.tieBuf[r.IntN(len(s.tieBuf))]
		}
	}
	if s.live != nil {
		return -1 // every replica of the file is dead
	}
	// Unreachable when the replica list is non-empty.
	panic("core: ring search exhausted the torus with a non-empty replica set")
}

// scanSearch walks the replica list, tracking the minimum distance and
// reservoir-sampling uniformly among ties without allocating. Dead
// replicas are skipped under a liveness mask; -1 means none was live.
// The first survivor enters as sole tie without an RNG draw, so the
// draw sequence is unchanged from the historical reps[0]-seeded loop.
func (s *NearestReplica) scanSearch(req Request, reps []int32, r *rand.Rand) int32 {
	best, bestD, ties := int32(-1), math.MaxInt, 0
	for _, v := range reps {
		if s.live != nil && !s.live.Live(int(v)) {
			s.retried = true
			continue
		}
		d := s.g.Dist(int(req.Origin), int(v))
		switch {
		case d < bestD:
			best, bestD, ties = v, d, 1
		case d == bestD:
			ties++
			if r.IntN(ties) == 0 {
				best = v
			}
		}
	}
	return best
}

var _ Strategy = (*NearestReplica)(nil)
var _ LivenessAware = (*NearestReplica)(nil)

// NearestDistance returns the hop distance from u to the closest replica
// of file j, or -1 if the file is cached nowhere. Exposed for the Voronoi
// cross-checks and the Theorem 2 experiments.
func NearestDistance(g *grid.Grid, p *cache.Placement, u, j int) int {
	reps := p.Replicas(j)
	if len(reps) == 0 {
		return -1
	}
	best := math.MaxInt
	for _, v := range reps {
		if d := g.Dist(u, int(v)); d < best {
			best = d
		}
	}
	return best
}
