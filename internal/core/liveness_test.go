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

// bruteLiveCandidates is the reference exact pool: {v ∈ S_j : dist(u,v)
// ≤ r ∧ live(v)} by direct enumeration, no index, no sampler, sorted.
// A nil mask counts every node live.
func bruteLiveCandidates(g *grid.Grid, p *cache.Placement, lv *cache.Liveness, origin, file, radius int) []int32 {
	var out []int32
	for _, v := range p.Replicas(file) {
		if g.Dist(origin, int(v)) <= radius && (lv == nil || lv.Live(int(v))) {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// liveStorm applies one random batch of kills and revives.
func liveStorm(lv *cache.Liveness, n int, rng *rand.Rand) {
	for e := 0; e < 1+rng.IntN(8); e++ {
		u := int32(rng.IntN(n))
		if rng.IntN(2) == 0 {
			lv.Kill(u)
		} else {
			lv.Revive(u)
		}
	}
}

// TestLivenessMaskedCandidatesMatchBruteForce: under a crash/recover
// storm, the masked exact pools — the tile-walk enumeration, with the
// per-tile live-count skip active, and the untiled twin's one-run walk
// — must equal the brute-force live filter as a set.
func TestLivenessMaskedCandidatesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 83))
	for it := 0; it < 40; it++ {
		l := 8 + rng.IntN(12)
		tile := 1 + rng.IntN(5)
		radius := 1 + rng.IntN(l/2+1)
		k := 20 + rng.IntN(80)
		m := 1 + rng.IntN(3)
		g, p, s, plain := indexedWorld(l, tile, grid.Torus, k, m, 0, TwoChoiceConfig{Radius: radius}, uint64(4000+it))
		if s.cfg.Radius == RadiusUnbounded {
			continue
		}
		lv := cache.NewLiveness(g.N())
		lv.BindTiling(p.TileIndex().Tiling())
		s.SetLiveness(lv)
		plain.SetLiveness(lv)
		if !s.liveTiles {
			t.Fatalf("it=%d: tile skip not armed despite shared tiling", it)
		}
		for step := 0; step < 15; step++ {
			liveStorm(lv, g.N(), rng)
			origin := int32(rng.IntN(g.N()))
			file := int32(rng.IntN(k))
			want := bruteLiveCandidates(g, p, lv, int(origin), int(file), radius)
			req := Request{Origin: origin, File: file}
			got := slices.Clone(exactPoolOf(s, req))
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("it=%d step=%d (indexed): got %v want %v", it, step, got, want)
			}
			got = slices.Clone(exactPoolOf(plain, req))
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("it=%d step=%d (untiled): got %v want %v", it, step, got, want)
			}
		}
	}
}

// TestLivenessAssignNeverPicksDead: through the full Assign path of
// every strategy, with storms between batches, a non-backhaul
// assignment must land on a live server (backhaul serves at the origin
// from upstream, so the origin's own liveness is irrelevant there).
func TestLivenessAssignNeverPicksDead(t *testing.T) {
	const l, k, m, radius = 12, 120, 2, 4
	g := grid.New(l, grid.Torus)
	pop := dist.NewZipf(k, 0.9)
	pl := cache.NewPlacer(g.N(), m, k)
	pl.EnableTiles(g.NewTiling(3))
	p := pl.Place(pop, cache.WithReplacement, rand.New(rand.NewPCG(5, 6)))
	lv := cache.NewLiveness(g.N())
	lv.BindTiling(p.TileIndex().Tiling())
	strategies := map[string]Strategy{
		"nearest":     NewNearestReplica(g, p),
		"two-bounded": NewTwoChoice(g, p, TwoChoiceConfig{Radius: radius}),
		"two-inf":     NewTwoChoice(g, p, TwoChoiceConfig{Radius: RadiusUnbounded}),
		"oracle":      NewLeastLoadedOracle(g, p, TwoChoiceConfig{Radius: radius}),
		"oracle-inf":  NewLeastLoadedOracle(g, p, TwoChoiceConfig{Radius: RadiusUnbounded}),
	}
	for name, st := range strategies {
		st.(LivenessAware).SetLiveness(lv)
		lv.Reset()
		rng := rand.New(rand.NewPCG(17, 23))
		loads := ballsbins.NewLoads(g.N())
		for step := 0; step < 60; step++ {
			liveStorm(lv, g.N(), rng)
			for q := 0; q < 40; q++ {
				req := Request{Origin: int32(rng.IntN(g.N())), File: int32(rng.IntN(k))}
				a := st.Assign(req, loads, rng)
				if a.Backhaul {
					if a.Server != req.Origin {
						t.Fatalf("%s: backhaul served away from origin: %+v", name, a)
					}
					continue
				}
				if !lv.Live(int(a.Server)) {
					t.Fatalf("%s step=%d: assigned dead server %d (req %+v)", name, step, a.Server, req)
				}
				loads.Add(int(a.Server))
			}
		}
	}
}

// TestLivenessAllDeadBackhaul: with every node dead, every strategy must
// serve every request via backhaul — the bottom rung of the ladder.
func TestLivenessAllDeadBackhaul(t *testing.T) {
	const l, k, m = 8, 40, 2
	g := grid.New(l, grid.Torus)
	p := cache.Place(g.N(), m, dist.NewUniform(k), cache.WithReplacement, rand.New(rand.NewPCG(1, 2)))
	lv := cache.NewLiveness(g.N())
	for u := int32(0); u < int32(g.N()); u++ {
		lv.Kill(u)
	}
	for _, st := range []Strategy{
		NewNearestReplica(g, p),
		NewTwoChoice(g, p, TwoChoiceConfig{Radius: 3}),
		NewTwoChoice(g, p, TwoChoiceConfig{Radius: RadiusUnbounded}),
		NewLeastLoadedOracle(g, p, TwoChoiceConfig{Radius: 3}),
	} {
		st.(LivenessAware).SetLiveness(lv)
		rng := rand.New(rand.NewPCG(9, 9))
		loads := ballsbins.NewLoads(g.N())
		for q := 0; q < 50; q++ {
			req := Request{Origin: int32(rng.IntN(g.N())), File: int32(rng.IntN(k))}
			a := st.Assign(req, loads, rng)
			if !a.Backhaul || a.Server != req.Origin {
				t.Fatalf("%s: all-dead world served %+v", st.Name(), a)
			}
			if len(p.Replicas(int(req.File))) > 0 && !a.Retried {
				t.Fatalf("%s: all-dead assignment of a replicated file not marked Retried: %+v", st.Name(), a)
			}
		}
	}
}

// TestLivenessAllLiveBitIdentical: an all-live mask must reproduce the
// unmasked strategy's assignments draw for draw — binding the mask adds
// checks, never RNG consumption, so the two runs stay in lockstep.
func TestLivenessAllLiveBitIdentical(t *testing.T) {
	const l, k, m, radius = 10, 80, 2, 3
	g := grid.New(l, grid.Torus)
	p := cache.Place(g.N(), m, dist.NewZipf(k, 1.1), cache.WithReplacement, rand.New(rand.NewPCG(3, 4)))
	lv := cache.NewLiveness(g.N())
	for _, tc := range []struct {
		build func(*grid.Grid, *cache.Placement, TwoChoiceConfig) *TwoChoice
		cfg   TwoChoiceConfig
	}{
		{NewTwoChoice, TwoChoiceConfig{Radius: radius}},
		{NewTwoChoice, TwoChoiceConfig{Radius: RadiusUnbounded}},
		{NewLeastLoadedOracle, TwoChoiceConfig{Radius: radius}},
	} {
		masked := tc.build(g, p, tc.cfg)
		masked.SetLiveness(lv)
		bare := tc.build(g, p, tc.cfg)
		rngA := rand.New(rand.NewPCG(42, 43))
		rngB := rand.New(rand.NewPCG(42, 43))
		loadsA := ballsbins.NewLoads(g.N())
		loadsB := ballsbins.NewLoads(g.N())
		reqRng := rand.New(rand.NewPCG(7, 8))
		for q := 0; q < 400; q++ {
			req := Request{Origin: int32(reqRng.IntN(g.N())), File: int32(reqRng.IntN(k))}
			a := masked.Assign(req, loadsA, rngA)
			b := bare.Assign(req, loadsB, rngB)
			if a.Server != b.Server || a.Hops != b.Hops || a.Escalated != b.Escalated ||
				a.Backhaul != b.Backhaul || a.Retried {
				t.Fatalf("%s q=%d: masked %+v vs bare %+v", masked.Name(), q, a, b)
			}
			loadsA.Add(int(a.Server))
			loadsB.Add(int(b.Server))
		}
	}
}
