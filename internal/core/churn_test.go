package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/ballsbins"
	"repro/internal/cache"
	"repro/internal/dist"
	"repro/internal/grid"
)

// stormStep applies one random churn event (migration, or exchange when
// the destination is full) to p, mirroring the engine's event shape and
// draw order. Returns whether a mutation was applied.
func stormStep(p *cache.Placement, rng *rand.Rand) bool {
	j, i := p.SlotReplica(rng.IntN(p.ReplicaSlots()))
	v := int32(rng.IntN(p.N()))
	vFiles := p.NodeFiles(int(v))
	at, has := slices.BinarySearch(vFiles, int32(j))
	if has {
		return false
	}
	if len(vFiles) < p.M() {
		p.ReplaceReplica(j, i, v, at)
		return true
	}
	k := rng.IntN(len(vFiles))
	at2, has := slices.BinarySearch(p.NodeFiles(int(p.Replicas(j)[i])), vFiles[k])
	if has {
		return false
	}
	p.SwapReplicas(j, i, v, at, k, at2)
	return true
}

// TestIndexedCandidatesUnderChurn is the strategy-level mutation-storm
// contract: after every batch of ReplaceReplica/SwapReplicas mutations,
// the tile-walk candidate enumeration must still equal the brute-force
// radius filter as a set, for every file class (bitmap-dense and
// tile-run sparse) and under template, fallback and bounded-grid
// covers.
func TestIndexedCandidatesUnderChurn(t *testing.T) {
	for _, tc := range []struct {
		name string
		l    int
		tile int
		topo grid.Topology
	}{
		{"template", 24, 3, grid.Torus},
		{"fallback", 22, 4, grid.Torus},
		{"bounded", 20, 3, grid.Bounded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const k, m, radius = 48, 3, 5
			g := grid.New(tc.l, tc.topo)
			pl := cache.NewPlacer(g.N(), m, k)
			pl.EnableTiles(g.NewTiling(tc.tile))
			pl.EnableChurn()
			rng := rand.New(rand.NewPCG(uint64(tc.l), 0xBEEF))
			p := pl.Place(dist.NewZipf(k, 1.1), cache.WithReplacement, rng)
			s := NewTwoChoice(g, p, TwoChoiceConfig{Radius: radius})
			if s.tix == nil {
				t.Fatal("strategy did not bind the tile index")
			}
			applied := 0
			for batch := 0; batch < 20; batch++ {
				for e := 0; e < 40; e++ {
					if stormStep(p, rng) {
						applied++
					}
				}
				for q := 0; q < 40; q++ {
					req := Request{Origin: int32(rng.IntN(g.N())), File: int32(rng.IntN(k))}
					want := bruteLiveCandidates(g, p, nil, int(req.Origin), int(req.File), radius)
					got := slices.Clone(exactPoolOf(s, req))
					slices.Sort(got)
					if !slices.Equal(got, want) {
						t.Fatalf("batch %d u=%d j=%d:\n index %v\n exact %v",
							batch, req.Origin, req.File, got, want)
					}
				}
			}
			if applied < 100 {
				t.Fatalf("storm applied only %d mutations; fixture too tame", applied)
			}
		})
	}
}

// TestAssignUnderChurnStaysInRadius interleaves churn batches with full
// Assign calls across strategies, checking that every non-miss
// assignment lands inside the live S_j ∩ B_r(u) — the "strategies
// always observe a consistent index" contract at the Assign level.
func TestAssignUnderChurnStaysInRadius(t *testing.T) {
	const l, k, m, radius = 18, 60, 3, 4
	g := grid.New(l, grid.Torus)
	for _, indexed := range []bool{false, true} {
		pl := cache.NewPlacer(g.N(), m, k)
		if indexed {
			pl.EnableTiles(g.NewTiling(3))
		}
		pl.EnableChurn()
		rng := rand.New(rand.NewPCG(7, 0xF00D))
		p := pl.Place(dist.NewZipf(k, 1.0), cache.WithReplacement, rng)
		strats := []Strategy{
			NewTwoChoice(g, p, TwoChoiceConfig{Radius: radius}),
			NewLeastLoadedOracle(g, p, TwoChoiceConfig{Radius: radius}),
			NewNearestReplica(g, p),
		}
		loads := ballsbins.NewLoads(g.N())
		for round := 0; round < 60; round++ {
			for e := 0; e < 10; e++ {
				stormStep(p, rng)
			}
			for q := 0; q < 30; q++ {
				req := Request{Origin: int32(rng.IntN(g.N())), File: int32(rng.IntN(k))}
				for _, s := range strats {
					a := s.Assign(req, loads, rng)
					loads.Add(int(a.Server))
					if a.Backhaul {
						continue
					}
					if !p.Has(int(a.Server), int(req.File)) {
						t.Fatalf("indexed=%v %s: server %d does not cache file %d",
							indexed, s.Name(), a.Server, req.File)
					}
					if _, ok := s.(*NearestReplica); ok {
						continue
					}
					if !a.Escalated && g.Dist(int(req.Origin), int(a.Server)) > radius {
						t.Fatalf("indexed=%v %s: server %d outside radius", indexed, s.Name(), a.Server)
					}
				}
			}
		}
	}
}
