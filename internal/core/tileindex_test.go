package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/ballsbins"
	"repro/internal/cache"
	"repro/internal/dist"
	"repro/internal/grid"
)

// indexedWorld builds an index-carrying placement plus a TwoChoice bound
// to it, and — from an identical RNG history — its untiled twin: a plain
// placement with a strategy that walks each S_j as one run. The twins
// hold the same replica sets, in (tile, node) order on the indexed side
// and node order on the plain one.
func indexedWorld(l, tile int, topo grid.Topology, k, m int, gamma float64, cfg TwoChoiceConfig, seed uint64) (*grid.Grid, *cache.Placement, *TwoChoice, *TwoChoice) {
	g := grid.New(l, topo)
	var pop dist.Popularity = dist.NewUniform(k)
	if gamma > 0 {
		pop = dist.NewZipf(k, gamma)
	}
	pli := cache.NewPlacer(g.N(), m, k)
	pli.EnableTiles(g.NewTiling(tile))
	pi := pli.Place(pop, cache.WithReplacement, rand.New(rand.NewPCG(seed, seed^0xabcd)))
	plp := cache.NewPlacer(g.N(), m, k)
	pp := plp.Place(pop, cache.WithReplacement, rand.New(rand.NewPCG(seed, seed^0xabcd)))
	for j := 0; j < k; j++ {
		if !slices.Equal(pp.Replicas(j), slices.Sorted(slices.Values(pi.Replicas(j)))) {
			panic("indexedWorld: twin placements diverged")
		}
	}
	return g, pi, NewTwoChoice(g, pi, cfg), NewTwoChoice(g, pp, cfg)
}

// TestIndexExactCandidatesMatchBruteForce: for random worlds, origins
// and files, the tile-walk candidate list and the untiled twin's one-run
// list must each equal the brute-force radius filter as a set (orders
// differ: cover order, node order, sorted).
func TestIndexExactCandidatesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 41))
	for it := 0; it < 60; it++ {
		l := 8 + rng.IntN(16)
		tile := 1 + rng.IntN(6)
		topo := grid.Topology(rng.IntN(2))
		radius := 1 + rng.IntN(l/2+1)
		k := 20 + rng.IntN(100)
		m := 1 + rng.IntN(3)
		gamma := float64(rng.IntN(3)) * 0.7
		g, p, s, plain := indexedWorld(l, tile, topo, k, m, gamma, TwoChoiceConfig{Radius: radius}, uint64(1000+it))
		if s.cfg.Radius == RadiusUnbounded {
			continue // radius ≥ diameter collapses to the unbounded path
		}
		if s.tix == nil {
			t.Fatalf("it=%d: strategy did not bind the tile index", it)
		}
		for q := 0; q < 20; q++ {
			origin := int32(rng.IntN(g.N()))
			file := int32(rng.IntN(k))
			req := Request{Origin: origin, File: file}
			want := bruteLiveCandidates(g, p, nil, int(origin), int(file), radius)
			for _, side := range []struct {
				name string
				s    *TwoChoice
			}{{"index", s}, {"untiled", plain}} {
				got := slices.Clone(exactPoolOf(side.s, req))
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("it=%d l=%d tile=%d r=%d %v u=%d j=%d:\n %s %v\n brute %v",
						it, l, tile, radius, topo, origin, file, side.name, got, want)
				}
			}
		}
	}
}

// chiSquaredUniform draws n single-candidate assignments for a fixed
// request through the full Assign path (flat loads, d = 1, so the
// returned server IS the sampled candidate) and returns the chi-squared
// statistic against the uniform law over cands. Every draw must carry
// the given escalation flag and no backhaul.
func chiSquaredUniform(t *testing.T, g *grid.Grid, s *TwoChoice, cands []int32, escalated bool, req Request, n int, seed uint64) (chi2 float64, df int) {
	t.Helper()
	if len(cands) < 2 {
		t.Fatalf("degenerate candidate set %v for origin=%d file=%d", cands, req.Origin, req.File)
	}
	counts := make(map[int32]int, len(cands))
	loads := ballsbins.NewLoads(g.N())
	rng := rand.New(rand.NewPCG(seed, seed*2+1))
	for i := 0; i < n; i++ {
		a := s.Assign(req, loads, rng)
		if a.Escalated != escalated || a.Backhaul {
			t.Fatalf("origin=%d file=%d: %+v, want escalated=%v and no backhaul", req.Origin, req.File, a, escalated)
		}
		counts[a.Server]++
	}
	expected := float64(n) / float64(len(cands))
	for _, v := range cands {
		d := float64(counts[v]) - expected
		chi2 += d * d / expected
		delete(counts, v)
	}
	if len(counts) != 0 {
		t.Fatalf("sampler produced servers outside the candidate set: %v", counts)
	}
	return chi2, len(cands) - 1
}

// TestTwoStageSamplerUniformLaw: Strategy II at d = 1 must draw
// uniformly over S_j ∩ B_r(u) across the popularity spectrum (sparse,
// mid, popular files), and uniformly over all of S_j when the ball holds
// no replica and the request escalates, on the tile index and on its
// untiled twin, which walks S_j as one run. The three geometries
// exercise the memoized cover (torus, tiles dividing the side), a torus
// whose tiles do not divide the side and a bounded grid. Thresholds sit
// far above the 99.9th chi-squared percentile; seeds are fixed, so the
// test is deterministic.
func TestTwoStageSamplerUniformLaw(t *testing.T) {
	for _, tc := range []struct {
		name string
		l    int
		tile int
		topo grid.Topology
	}{
		{"template", 24, 3, grid.Torus},  // 24 % 3 == 0, r+t-1 ≤ 12: CoverTable rows
		{"fallback", 22, 4, grid.Torus},  // 22 % 4 != 0: per-query rows
		{"bounded", 20, 3, grid.Bounded}, // boundary clipping: per-query rows
	} {
		t.Run(tc.name, func(t *testing.T) {
			const k, m, radius = 40, 2, 6
			g, p, s, plain := indexedWorld(tc.l, tc.tile, tc.topo, k, m, 1.1, TwoChoiceConfig{Radius: radius, Choices: 1}, 77)
			// Pick one sparse, one mid, one popular file relative to the
			// candidate space, each with ≥ 2 in-radius candidates from a
			// suitable origin, and one file of ≥ 2 replicas seen from an
			// origin whose ball holds none of them.
			for _, class := range []struct {
				name string
				want func(sj, inBall int) bool
			}{
				{"sparse", func(sj, inBall int) bool { return sj <= 6 && inBall >= 2 }},
				{"mid", func(sj, inBall int) bool { return sj > 6 && sj <= 40 && inBall >= 3 }},
				{"popular", func(sj, inBall int) bool { return sj > 40 && inBall >= 8 }},
				{"escalated", func(sj, inBall int) bool { return sj >= 2 && inBall == 0 }},
			} {
				var req Request
				var cands []int32
			search:
				for j := 0; j < k; j++ {
					reps := p.Replicas(j)
					for u := 0; u < g.N(); u += 7 {
						req = Request{Origin: int32(u), File: int32(j)}
						if in := bruteLiveCandidates(g, p, nil, u, j, radius); class.want(len(reps), len(in)) {
							cands = slices.Clone(in)
							if len(in) == 0 {
								cands = slices.Clone(reps)
							}
							break search
						}
					}
				}
				if cands == nil {
					t.Fatalf("no %s file found in this world (tune the fixture)", class.name)
				}
				const n = 40000
				for _, side := range []struct {
					name string
					s    *TwoChoice
				}{{"index", s}, {"untiled", plain}} {
					chi2, df := chiSquaredUniform(t, g, side.s, cands, class.name == "escalated", req, n, 1234+uint64(req.File))
					// 99.9th percentile of chi² ≈ df + 3.09·√(2df) for
					// moderate df; allow a wide margin on top.
					limit := float64(df) + 4.5*math.Sqrt(2*float64(df)) + 6
					if chi2 > limit {
						t.Errorf("%s %s: file %d origin %d (%d candidates): chi² = %.1f > %.1f (df=%d) — sampler not uniform",
							side.name, class.name, req.File, req.Origin, len(cands), chi2, limit, df)
					}
				}
			}
		})
	}
}

// TestIndexedAssignMatchesSemantics: with and without the index, Assign
// must agree on everything the RNG does not influence — escalation/
// backhaul outcomes and the candidate-set membership of the server — for
// every miss policy combination.
func TestIndexedAssignMatchesSemantics(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 17))
	for _, noEsc := range []bool{false, true} {
		cfg := TwoChoiceConfig{Radius: 4, NoEscalate: noEsc}
		g, p, indexed, plain := indexedWorld(14, 2, grid.Torus, 200, 1, 0, cfg, 5)
		loads := ballsbins.NewLoads(g.N())
		for q := 0; q < 4000; q++ {
			req := Request{Origin: int32(rng.IntN(g.N())), File: int32(rng.IntN(200))}
			cands := bruteLiveCandidates(g, p, nil, int(req.Origin), int(req.File), 4)
			ai := indexed.Assign(req, loads, rng)
			ap := plain.Assign(req, loads, rng)
			if ai.Escalated != ap.Escalated || ai.Backhaul != ap.Backhaul {
				t.Fatalf("noEsc=%v req=%+v: flags diverge: indexed %+v plain %+v", noEsc, req, ai, ap)
			}
			if !ai.Escalated && !ai.Backhaul && !slices.Contains(cands, ai.Server) {
				t.Fatalf("noEsc=%v req=%+v: indexed server %d outside S_j ∩ B_r %v", noEsc, req, ai.Server, cands)
			}
			loads.Add(int(ai.Server))
		}
	}
}

// TestOracleIndexedMatchesExact: the full-information oracle must pick a
// least-loaded in-radius replica whether or not the index is bound.
func TestOracleIndexedMatchesExact(t *testing.T) {
	g, p, _, plainStrat := indexedWorld(12, 3, grid.Torus, 100, 2, 0.9, TwoChoiceConfig{Radius: 3}, 8)
	indexed := NewLeastLoadedOracle(g, p, TwoChoiceConfig{Radius: 3})
	plain := NewLeastLoadedOracle(g, plainStrat.p, TwoChoiceConfig{Radius: 3})
	loads := ballsbins.NewLoads(g.N())
	rng := rand.New(rand.NewPCG(3, 33))
	for q := 0; q < 3000; q++ {
		req := Request{Origin: int32(rng.IntN(g.N())), File: int32(rng.IntN(100))}
		ai := indexed.Assign(req, loads, rng)
		ap := plain.Assign(req, loads, rng)
		if ai.Escalated != ap.Escalated || ai.Backhaul != ap.Backhaul {
			t.Fatalf("req=%+v: flags diverge: %+v vs %+v", req, ai, ap)
		}
		// Both picks must be least-loaded over the same pool (the winners
		// may differ on ties, which the reservoir breaks uniformly).
		if loads.Load(int(ai.Server)) != loads.Load(int(ap.Server)) {
			t.Fatalf("req=%+v: oracle loads diverge: %d@%d vs %d@%d",
				req, ai.Server, loads.Load(int(ai.Server)), ap.Server, loads.Load(int(ap.Server)))
		}
		loads.Add(int(ai.Server))
	}
}
