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

// ladderView is what the brute force knows about one request: the file's
// replicas, the live ones, and the live ones within the radius.
type ladderView struct {
	s                      *TwoChoice
	req                    Request
	reps, liveReps, inBall []int32
}

// ladderBranch names a branch of the candidate ladder and recognizes, by
// brute force, a request that must take it.
type ladderBranch struct {
	name   string
	forced func(v ladderView) bool
}

// runTotal is the replica count of the runs of S_j covering B_r(u) for
// the request's file (all of S_j on an untiled placement), or -1 when
// the ladder walks no runs for it.
func runTotal(v ladderView) int {
	if !v.s.walks(v.req.File) {
		return -1
	}
	return v.s.collectRuns(v.req.Origin, v.req.File, int32(len(v.reps)))
}

// exactPoolOf is the ladder's exact pool S_j ∩ B_r(u) for req, walked
// first as Assign walks it.
func exactPoolOf(s *TwoChoice, req Request) []int32 {
	reps := s.p.Replicas(int(req.File))
	walked := s.walks(req.File)
	if walked {
		s.collectRuns(req.Origin, req.File, int32(len(reps)))
	}
	return s.exactPool(req, reps, walked)
}

// TestLadderBranchesAgainstBruteForce drives each branch of the candidate
// ladder that the benchmark workloads never take through a world built to
// force it, and checks every decision against brute force: a served
// request lands on a live replica of its file, within the radius unless
// no live replica lies there (then it escalates to S_j, or backhauls
// under NoEscalate or when S_j holds no live replica); Hops is the grid
// distance; Retried is set only under a liveness mask, and only when a
// replica of the file is dead. The oracle's server is also a
// least-loaded member of its pool. Each row asserts that its branch was
// forced at least minForced times. Every request is also planned on a
// second instance (Plan) and finished from the plan (AssignPlanned) on a
// twin of the assignment stream, which must give the same Assignment and
// leave the stream at the same word.
func TestLadderBranchesAgainstBruteForce(t *testing.T) {
	const minForced = 10
	type world struct {
		side     int
		topo     grid.Topology
		tile     int // 0 = untiled
		k, m     int
		gamma    float64 // 0 = uniform
		dead     float64 // fraction of nodes killed; 0 = no liveness mask
		deadTile bool    // also kill every node of tile 0
	}
	empty := func(v ladderView) bool { return len(v.reps) > 0 && len(v.inBall) == 0 }
	// An untiled placement walks S_j as one partial run, and the exact
	// pool serves above 3d replicas (d = 2; here with a live replica in
	// the ball), where a tiled walk would try the run sampler, as well as
	// at or below.
	untiledRun := []ladderBranch{
		{"exact pool above 3d", func(v ladderView) bool { return v.s.tix == nil && runTotal(v) > 3*2 && len(v.inBall) > 0 }},
		{"exact pool at or below 3d", func(v ladderView) bool { t := runTotal(v); return v.s.tix == nil && t > 0 && t <= 3*2 }},
	}
	for _, tc := range []struct {
		name     string
		w        world
		cfg      TwoChoiceConfig
		oracle   bool
		branches []ladderBranch
	}{
		{"bitmap sampler out of budget", world{16, grid.Torus, 4, 4, 2, 0, 0, false}, TwoChoiceConfig{Radius: 1},
			false, []ladderBranch{{"dense file, empty ball", func(v ladderView) bool {
				return v.s.ball != nil && v.s.tix.FileBits(int(v.req.File)) != nil && empty(v)
			}}}},
		{"bitmap sampler out of budget, masked", world{16, grid.Torus, 4, 4, 2, 0, 0.7, false}, TwoChoiceConfig{Radius: 1},
			false, []ladderBranch{{"dense file, no live replica in the ball", func(v ladderView) bool {
				return v.s.ball != nil && v.s.tix.FileBits(int(v.req.File)) != nil && empty(v)
			}}}},
		{"bitmap exact pool, no ball template", world{16, grid.Bounded, 4, 4, 2, 0, 0, false}, TwoChoiceConfig{Radius: 2},
			false, []ladderBranch{{"dense file on a bounded grid", func(v ladderView) bool {
				return v.s.ball == nil && v.s.tix.FileBits(int(v.req.File)) != nil && len(v.inBall) > 0
			}}}},
		{"run sampler out of budget", world{16, grid.Torus, 8, 30, 3, 0, 0, false}, TwoChoiceConfig{Radius: 1},
			false, []ladderBranch{{"runs above 3d, empty ball", func(v ladderView) bool {
				return runTotal(v) > 3*2 && empty(v)
			}}}},
		{"run sampler out of budget, masked", world{16, grid.Torus, 8, 30, 3, 0, 0.5, false}, TwoChoiceConfig{Radius: 1},
			false, []ladderBranch{{"runs above 3d, no live replica in the ball", func(v ladderView) bool {
				return runTotal(v) > 3*2 && empty(v)
			}}}},
		{"untiled one run", world{12, grid.Torus, 0, 30, 3, 1.0, 0, false}, TwoChoiceConfig{Radius: 2}, false, untiledRun},
		{"untiled one run, masked", world{12, grid.Torus, 0, 30, 3, 1.0, 0.4, false}, TwoChoiceConfig{Radius: 2}, false, untiledRun},
		{"r = ∞", world{12, grid.Torus, 3, 30, 2, 0.8, 0, false}, TwoChoiceConfig{Radius: RadiusUnbounded},
			false, []ladderBranch{{"several replicas", func(v ladderView) bool {
				return v.s.cfg.Radius == RadiusUnbounded && len(v.reps) > 1
			}}}},
		{"oracle, uniform", world{12, grid.Torus, 3, 30, 3, 0, 0, false}, TwoChoiceConfig{Radius: 2},
			true, []ladderBranch{
				{"one candidate", func(v ladderView) bool { return len(v.inBall) == 1 }},
				{"runs above 3d", func(v ladderView) bool { return runTotal(v) > 3*2 && len(v.inBall) > 1 }},
			}},
		{"oracle, uniform, masked", world{12, grid.Torus, 3, 30, 3, 0, 0.3, false}, TwoChoiceConfig{Radius: 2},
			true, []ladderBranch{
				{"runs above 3d", func(v ladderView) bool { return runTotal(v) > 3*2 && len(v.inBall) > 1 }},
				{"escalated", empty},
			}},
		// At r = ∞ the exact pool is S_j itself, unfiltered, so the
		// oracle's fold must drop the dead replicas.
		{"oracle, masked, r = ∞", world{12, grid.Torus, 3, 30, 2, 0.8, 0.5, false}, TwoChoiceConfig{Radius: RadiusUnbounded},
			true, []ladderBranch{{"dead replicas in S_j", func(v ladderView) bool {
				return len(v.liveReps) > 1 && len(v.liveReps) < len(v.reps)
			}}}},
		{"beta coin", world{16, grid.Torus, 4, 60, 3, 0, 0, false}, TwoChoiceConfig{Radius: 3, Beta: 0.5},
			false, []ladderBranch{{"several candidates", func(v ladderView) bool { return len(v.inBall) > 1 }}}},
		{"d = 3", world{16, grid.Torus, 4, 60, 3, 0, 0, false}, TwoChoiceConfig{Radius: 3, Choices: 3},
			false, []ladderBranch{
				{"run sampler", func(v ladderView) bool { return runTotal(v) > 3*3 && len(v.inBall) > 0 }},
				{"runs no larger than 3d", func(v ladderView) bool { t := runTotal(v); return t > 0 && t <= 3*3 }},
			}},
		{"NoEscalate backhaul", world{16, grid.Torus, 8, 60, 2, 0, 0, false}, TwoChoiceConfig{Radius: 1, NoEscalate: true},
			false, []ladderBranch{{"empty ball", empty}}},
		{"live rejection exhausted", world{16, grid.Torus, 4, 8, 2, 0, 0.97, false}, TwoChoiceConfig{Radius: RadiusUnbounded},
			false, []ladderBranch{{"one live replica in fifty", func(v ladderView) bool {
				return len(v.liveReps) > 0 && 50*len(v.liveReps) <= len(v.reps)
			}}}},
		{"pool with no live member", world{16, grid.Torus, 4, 8, 2, 0, 0.97, false}, TwoChoiceConfig{Radius: 3},
			false, []ladderBranch{{"every replica dead", func(v ladderView) bool {
				return len(v.reps) > 0 && len(v.liveReps) == 0
			}}}},
		{"oracle", world{12, grid.Torus, 3, 30, 2, 0.8, 0, false}, TwoChoiceConfig{Radius: 2},
			true, []ladderBranch{{"several candidates", func(v ladderView) bool { return len(v.inBall) > 1 }}}},
		{"oracle, masked", world{12, grid.Torus, 3, 30, 2, 0.8, 0.5, false}, TwoChoiceConfig{Radius: 2},
			true, []ladderBranch{
				{"several candidates", func(v ladderView) bool { return len(v.inBall) > 1 }},
				{"escalated", func(v ladderView) bool { return empty(v) && len(v.liveReps) > 1 }},
			}},
		{"one-choice", world{12, grid.Torus, 3, 30, 2, 0.8, 0, false}, TwoChoiceConfig{Radius: 3, Choices: 1},
			false, []ladderBranch{{"several candidates", func(v ladderView) bool { return len(v.inBall) > 1 }}}},
		{"dead tile skipped", world{16, grid.Torus, 4, 30, 3, 0, 0.2, true}, TwoChoiceConfig{Radius: 3},
			false, []ladderBranch{{"a replica in the ball sits in a dead tile", func(v ladderView) bool {
				for _, u := range v.reps {
					if v.s.live.TileLive(v.s.tix.Tiling().TileOf(u)) == 0 && v.s.g.Dist(int(v.req.Origin), int(u)) <= v.s.cfg.Radius {
						return true
					}
				}
				return false
			}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.w
			g := grid.New(w.side, w.topo)
			var pop dist.Popularity = dist.NewUniform(w.k)
			if w.gamma > 0 {
				pop = dist.NewZipf(w.k, w.gamma)
			}
			pl := cache.NewPlacer(g.N(), w.m, w.k)
			if w.tile > 0 {
				pl.EnableTiles(g.NewTiling(w.tile))
			}
			pcg := rand.NewPCG(uint64(w.side), 0x1add)
			rng := rand.New(pcg)
			p := pl.Place(pop, cache.WithReplacement, rng)
			build := NewTwoChoice
			if tc.oracle {
				build = NewLeastLoadedOracle
			}
			s, planner := build(g, p, tc.cfg), build(g, p, tc.cfg)
			if (w.tile > 0 && tc.cfg.Radius != RadiusUnbounded) != (s.tix != nil) {
				t.Fatalf("tile index bound: %v", s.tix != nil)
			}
			var lv *cache.Liveness
			if w.dead > 0 {
				lv = cache.NewLiveness(g.N())
				if w.tile > 0 {
					lv.BindTiling(p.TileIndex().Tiling())
				}
				for u := int32(0); u < int32(g.N()); u++ {
					if rng.Float64() < w.dead {
						lv.Kill(u)
					}
				}
				if w.deadTile {
					for u := int32(0); u < int32(g.N()); u++ {
						if p.TileIndex().Tiling().TileOf(u) == 0 {
							lv.Kill(u)
						}
					}
				}
				s.SetLiveness(lv)
				planner.SetLiveness(lv)
			}
			const requests = 3000
			runs := requests // a walk gathers at most one run per tile
			if tix := p.TileIndex(); tix != nil {
				runs *= tix.Tiling().Tiles()
			}
			plans := NewPlans(requests, runs)
			radius := s.Radius()
			loads := ballsbins.NewLoads(g.N())
			forced := make([]int, len(tc.branches))
			for q := 0; q < requests; q++ {
				req := Request{Origin: int32(rng.IntN(g.N())), File: int32(rng.IntN(w.k))}
				v := ladderView{s: s, req: req, reps: slices.Clone(p.Replicas(int(req.File)))}
				for _, u := range v.reps {
					if lv == nil || lv.Live(int(u)) {
						v.liveReps = append(v.liveReps, u)
						if radius == RadiusUnbounded || g.Dist(int(req.Origin), int(u)) <= radius {
							v.inBall = append(v.inBall, u)
						}
					}
				}
				for i, b := range tc.branches {
					if b.forced(v) {
						forced[i]++
					}
				}
				if !planner.Plan(req, plans) {
					t.Fatalf("req %d: the plan arena is full", q)
				}
				twin := *pcg
				planned := s.AssignPlanned(req, plans, q, loads, rand.New(&twin))
				a := s.Assign(req, loads, rng)
				if next := *pcg; planned != a || next.Uint64() != twin.Uint64() {
					t.Fatalf("req %+v: planned %+v, Assign %+v (same next word: %v)", req, planned, a, next.Uint64() == twin.Uint64())
				}
				checkLadderDecision(t, g, p, lv, tc.cfg, tc.oracle, v, a, loads)
				loads.Add(int(a.Server))
			}
			for i, b := range tc.branches {
				t.Logf("branch %q forced %d times", b.name, forced[i])
				if forced[i] < minForced {
					t.Errorf("branch %q forced %d times, want ≥ %d (tune the world)", b.name, forced[i], minForced)
				}
			}
		})
	}
}

// checkLadderDecision checks one assignment against the brute-force view
// of its request (see TestLadderBranchesAgainstBruteForce).
func checkLadderDecision(t *testing.T, g *grid.Grid, p *cache.Placement, lv *cache.Liveness, cfg TwoChoiceConfig, oracle bool, v ladderView, a Assignment, loads *ballsbins.Loads) {
	t.Helper()
	req := v.req
	var pool []int32
	switch {
	case len(v.inBall) > 0:
		pool = v.inBall
	case len(v.liveReps) > 0 && !cfg.NoEscalate:
		pool = v.liveReps
	}
	if pool == nil {
		if !a.Backhaul || a.Escalated || a.Server != req.Origin || a.Hops != 0 {
			t.Fatalf("req %+v (|S_j| %d, %d live, %d in ball): %+v, want backhaul at the origin",
				req, len(v.reps), len(v.liveReps), len(v.inBall), a)
		}
	} else {
		if a.Backhaul || a.Escalated != (len(v.inBall) == 0) || !slices.Contains(pool, a.Server) {
			t.Fatalf("req %+v: %+v, want a server in %v (escalated: %v)", req, a, pool, len(v.inBall) == 0)
		}
		if !p.Has(int(a.Server), int(req.File)) || lv != nil && !lv.Live(int(a.Server)) {
			t.Fatalf("req %+v: server %d does not cache the file or is dead", req, a.Server)
		}
		if int(a.Hops) != g.Dist(int(req.Origin), int(a.Server)) {
			t.Fatalf("req %+v: hops %d, distance %d", req, a.Hops, g.Dist(int(req.Origin), int(a.Server)))
		}
		if oracle {
			for _, u := range pool {
				if loads.Load(int(u)) < loads.Load(int(a.Server)) {
					t.Fatalf("req %+v: server %d (load %d) is not least loaded: %d has load %d",
						req, a.Server, loads.Load(int(a.Server)), u, loads.Load(int(u)))
				}
			}
		}
	}
	if a.Retried && (lv == nil || len(v.liveReps) == len(v.reps)) {
		t.Fatalf("req %+v: Retried set with no dead replica (mask bound: %v)", req, lv != nil)
	}
}

// TestUntiledExactPoolFold: a placement without a tile index serves
// every bounded-radius request from the exact pool, so Assign makes the
// decision and the draws of a brute-force fold of d uniform draws over
// S_j ∩ B_r(u) in S_j's order (all of S_j when the ball holds none): the
// same server and escalation, and the stream left at the same word. The
// cases it counts are those with more than 3d replicas and one in the
// ball, where a tiled walk would try the run sampler.
func TestUntiledExactPoolFold(t *testing.T) {
	const k = 30
	for _, tc := range []struct {
		l    int
		topo grid.Topology
		cfg  TwoChoiceConfig
	}{
		{12, grid.Torus, TwoChoiceConfig{Radius: 2}},
		{12, grid.Torus, TwoChoiceConfig{Radius: 3, Choices: 3}},
		{14, grid.Bounded, TwoChoiceConfig{Radius: 3, Choices: 1}},
	} {
		g, _, _, s := indexedWorld(tc.l, 3, tc.topo, k, 3, 1.0, tc.cfg, 11)
		d := s.cfg.Choices
		loads := ballsbins.NewLoads(g.N())
		pcg := rand.NewPCG(uint64(tc.l), 0xf01d)
		reqs := rand.New(rand.NewPCG(5, 7))
		counted := 0
		for q := 0; q < 3000; q++ {
			req := Request{Origin: int32(reqs.IntN(g.N())), File: int32(reqs.IntN(k))}
			reps := s.p.Replicas(int(req.File))
			var pool []int32
			for _, v := range reps {
				if g.Dist(int(req.Origin), int(v)) <= tc.cfg.Radius {
					pool = append(pool, v)
				}
			}
			if len(reps) > 3*d && len(pool) > 0 {
				counted++
			}
			escalated := len(pool) == 0 && len(reps) > 0
			if escalated {
				pool = reps
			}
			twin := *pcg
			r := rand.New(&twin)
			want := req.Origin
			switch {
			case len(pool) == 1:
				want = pool[0]
			case len(pool) > 1:
				ties := 0
				for range d {
					v := pool[r.IntN(len(pool))]
					switch lv := loads.Load(int(v)); {
					case ties == 0 || lv < loads.Load(int(want)):
						want, ties = v, 1
					case lv == loads.Load(int(want)):
						ties++
						if r.IntN(ties) == 0 {
							want = v
						}
					}
				}
			}
			a := s.Assign(req, loads, rand.New(pcg))
			if a.Server != want || a.Escalated != escalated || a.Backhaul != (len(reps) == 0) {
				t.Fatalf("%s req %+v: %+v, want server %d escalated %v", s.Name(), req, a, want, escalated)
			}
			if got, next := pcg.Uint64(), twin.Uint64(); got != next {
				t.Fatalf("%s req %+v: next word %#x, brute-force fold's %#x", s.Name(), req, got, next)
			}
			if !a.Backhaul {
				loads.Add(int(a.Server))
			}
		}
		t.Logf("%s on a %d-side %v: %d requests above 3d with a replica in the ball", s.Name(), tc.l, tc.topo, counted)
		if counted < 100 {
			t.Errorf("%s: %d requests above 3d with a replica in the ball, want ≥ 100 (tune the world)", s.Name(), counted)
		}
	}
}
