package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ballsbins"
	"repro/internal/cache"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/xrand"
)

func testWorld(l, k, m int, seed uint64) (*grid.Grid, *cache.Placement) {
	g := grid.New(l, grid.Torus)
	p := cache.Place(g.N(), m, dist.NewUniform(k), cache.WithReplacement,
		xrand.NewSource(seed).Stream(0))
	return g, p
}

// cachedFile returns some file with ≥ minReps replicas, or -1.
func cachedFile(p *cache.Placement, minReps int) int {
	for j := 0; j < p.K(); j++ {
		if len(p.Replicas(j)) >= minReps {
			return j
		}
	}
	return -1
}

// uncachedFile returns some file with zero replicas, or -1.
func uncachedFile(p *cache.Placement) int {
	for j := 0; j < p.K(); j++ {
		if len(p.Replicas(j)) == 0 {
			return j
		}
	}
	return -1
}

func TestNearestReplicaIsNearest(t *testing.T) {
	g, p := testWorld(9, 20, 2, 1)
	s := NewNearestReplica(g, p)
	r := xrand.NewSource(2).Stream(0)
	loads := ballsbins.NewLoads(g.N())
	for origin := 0; origin < g.N(); origin++ {
		for j := 0; j < p.K(); j++ {
			if len(p.Replicas(j)) == 0 {
				continue
			}
			a := s.Assign(Request{Origin: int32(origin), File: int32(j)}, loads, r)
			want := NearestDistance(g, p, origin, j)
			if int(a.Hops) != want {
				t.Fatalf("origin %d file %d: hops %d, want %d", origin, j, a.Hops, want)
			}
			if !p.Has(int(a.Server), j) {
				t.Fatalf("server %d does not cache file %d", a.Server, j)
			}
			if a.Backhaul || a.Escalated {
				t.Fatalf("unexpected flags: %+v", a)
			}
		}
	}
}

func TestNearestReplicaModesAgreeOnDistance(t *testing.T) {
	// Ring and scan searches must return servers at identical distances
	// for every (origin, file) — the tie *choice* may differ, the
	// distance may not.
	g, p := testWorld(8, 15, 2, 3)
	s := NewNearestReplica(g, p)
	r := xrand.NewSource(4).Stream(0)
	for origin := 0; origin < g.N(); origin++ {
		for j := 0; j < p.K(); j++ {
			reps := p.Replicas(j)
			if len(reps) == 0 {
				continue
			}
			req := Request{Origin: int32(origin), File: int32(j)}
			a, b := g.Dist(origin, int(s.ringSearch(req, r))), g.Dist(origin, int(s.scanSearch(req, reps, r)))
			if a != b {
				t.Fatalf("origin %d file %d: ring %d hops, scan %d hops", origin, j, a, b)
			}
		}
	}
}

func TestNearestReplicaTieUniformity(t *testing.T) {
	// Pick a (origin, file) pair with several equidistant nearest
	// replicas and verify both search modes spread choices uniformly.
	g, p := testWorld(10, 8, 1, 7)
	s := NewNearestReplica(g, p)
	r := xrand.NewSource(8).Stream(0)
	for origin := 0; origin < g.N(); origin++ {
		for j := 0; j < p.K(); j++ {
			reps := p.Replicas(j)
			if len(reps) < 2 {
				continue
			}
			d := NearestDistance(g, p, origin, j)
			var ties []int32
			for _, v := range reps {
				if g.Dist(origin, int(v)) == d {
					ties = append(ties, v)
				}
			}
			if len(ties) < 3 {
				continue
			}
			req := Request{Origin: int32(origin), File: int32(j)}
			for _, search := range []struct {
				name string
				pick func() int32
			}{
				{"ring", func() int32 { return s.ringSearch(req, r) }},
				{"scan", func() int32 { return s.scanSearch(req, reps, r) }},
			} {
				counts := map[int32]int{}
				const trials = 3000
				for i := 0; i < trials; i++ {
					counts[search.pick()]++
				}
				want := 1.0 / float64(len(ties))
				for _, v := range ties {
					got := float64(counts[v]) / trials
					if math.Abs(got-want) > 0.05 {
						t.Fatalf("%s search: tie server %d frequency %.3f, want %.3f", search.name, v, got, want)
					}
				}
			}
			return
		}
	}
	t.Skip("no multi-way tie found")
}

func TestNearestReplicaBackhaul(t *testing.T) {
	g, p := testWorld(6, 500, 1, 2) // K >> nM guarantees uncached files
	j := uncachedFile(p)
	if j < 0 {
		t.Skip("no uncached file")
	}
	s := NewNearestReplica(g, p)
	a := s.Assign(Request{Origin: 5, File: int32(j)}, ballsbins.NewLoads(g.N()), xrand.NewSource(0).Stream(0))
	if !a.Backhaul || a.Server != 5 || a.Hops != 0 {
		t.Fatalf("backhaul assignment wrong: %+v", a)
	}
}

func TestTwoChoicePicksLesserLoaded(t *testing.T) {
	g, p := testWorld(7, 5, 2, 11)
	j := cachedFile(p, 2)
	s := NewTwoChoice(g, p, TwoChoiceConfig{Radius: RadiusUnbounded})
	r := xrand.NewSource(12).Stream(0)
	loads := ballsbins.NewLoads(g.N())
	// Load every replica of j except one heavily; the strategy must then
	// almost always route to the unloaded one (it is picked whenever
	// sampled at least once: probability 1-(1-1/c)^2).
	reps := p.Replicas(j)
	free := reps[0]
	for _, v := range reps[1:] {
		for i := 0; i < 50; i++ {
			loads.Add(int(v))
		}
	}
	wins := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		a := s.Assign(Request{Origin: 0, File: int32(j)}, loads, r)
		if !p.Has(int(a.Server), j) {
			t.Fatalf("server %d does not cache %d", a.Server, j)
		}
		if a.Server == free {
			wins++
		}
	}
	c := float64(len(reps))
	wantMin := 1 - math.Pow(1-1/c, 2) - 0.05
	if got := float64(wins) / trials; got < wantMin {
		t.Fatalf("unloaded replica chosen %.3f of the time, want ≥ %.3f", got, wantMin)
	}
}

func TestTwoChoiceUniformOverCandidatesWhenTied(t *testing.T) {
	// With all loads equal, the served node should be uniform over the
	// candidate set for d=2 with replacement + uniform tie breaking.
	g, p := testWorld(8, 4, 1, 13)
	j := cachedFile(p, 3)
	if j < 0 {
		t.Skip("no well-replicated file")
	}
	s := NewTwoChoice(g, p, TwoChoiceConfig{Radius: RadiusUnbounded})
	r := xrand.NewSource(14).Stream(0)
	loads := ballsbins.NewLoads(g.N())
	reps := p.Replicas(j)
	counts := map[int32]int{}
	const trials = 30000
	for i := 0; i < trials; i++ {
		counts[s.Assign(Request{Origin: 3, File: int32(j)}, loads, r).Server]++
	}
	want := 1.0 / float64(len(reps))
	for _, v := range reps {
		got := float64(counts[v]) / trials
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("replica %d frequency %.4f, want %.4f", v, got, want)
		}
	}
}

func TestTwoChoiceRadiusRespected(t *testing.T) {
	g, p := testWorld(15, 10, 1, 17)
	radius := 3
	s := NewTwoChoice(g, p, TwoChoiceConfig{Radius: radius})
	r := xrand.NewSource(18).Stream(0)
	loads := ballsbins.NewLoads(g.N())
	for origin := 0; origin < g.N(); origin++ {
		for j := 0; j < p.K(); j++ {
			if len(p.Replicas(j)) == 0 {
				continue
			}
			a := s.Assign(Request{Origin: int32(origin), File: int32(j)}, loads, r)
			if a.Backhaul {
				t.Fatalf("unexpected backhaul for cached file %d", j)
			}
			hasLocal := false
			for _, v := range p.Replicas(j) {
				if g.Dist(origin, int(v)) <= radius {
					hasLocal = true
					break
				}
			}
			if hasLocal {
				if a.Escalated || int(a.Hops) > radius {
					t.Fatalf("local replica exists but assignment %+v (radius %d)", a, radius)
				}
			} else if !a.Escalated {
				t.Fatalf("no local replica yet not escalated: origin %d file %d", origin, j)
			}
		}
	}
}

func TestTwoChoiceNoEscalateBackhauls(t *testing.T) {
	g, p := testWorld(15, 10, 1, 17)
	cfg := TwoChoiceConfig{Radius: 2, NoEscalate: true}
	for _, s := range []Strategy{NewTwoChoice(g, p, cfg), NewLeastLoadedOracle(g, p, cfg)} {
		r := xrand.NewSource(19).Stream(0)
		loads := ballsbins.NewLoads(g.N())
		sawBackhaul := false
		for origin := 0; origin < g.N() && !sawBackhaul; origin++ {
			for j := 0; j < p.K(); j++ {
				if len(p.Replicas(j)) == 0 {
					continue
				}
				a := s.Assign(Request{Origin: int32(origin), File: int32(j)}, loads, r)
				if a.Backhaul {
					if a.Server != int32(origin) || a.Hops != 0 {
						t.Fatalf("%s: backhaul must serve at origin: %+v", s.Name(), a)
					}
					sawBackhaul = true
					break
				}
				if int(a.Hops) > 2 || a.Escalated {
					t.Fatalf("%s: NoEscalate served beyond radius: %+v", s.Name(), a)
				}
			}
		}
		if !sawBackhaul {
			t.Skip("every (origin,file) pair had a local replica (unlikely)")
		}
	}
}

func TestOneChoiceIgnoresLoad(t *testing.T) {
	g, p := testWorld(8, 4, 1, 29)
	j := cachedFile(p, 4)
	s := NewTwoChoice(g, p, TwoChoiceConfig{Radius: RadiusUnbounded, Choices: 1})
	if s.Name() != "one-choice(r=inf)" {
		t.Fatalf("name: %s", s.Name())
	}
	loads := ballsbins.NewLoads(g.N())
	reps := p.Replicas(j)
	// Load all but one replica; one-choice must still pick uniformly.
	for _, v := range reps[1:] {
		loads.Add(int(v))
	}
	r := xrand.NewSource(30).Stream(0)
	c0 := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if s.Assign(Request{Origin: 1, File: int32(j)}, loads, r).Server == reps[0] {
			c0++
		}
	}
	want := 1.0 / float64(len(reps))
	if got := float64(c0) / trials; math.Abs(got-want) > 0.02 {
		t.Fatalf("one-choice picked light replica %.4f, want %.4f (load-blind)", got, want)
	}
}

func TestLeastLoadedOracle(t *testing.T) {
	g, p := testWorld(9, 6, 2, 31)
	j := cachedFile(p, 3)
	o := NewLeastLoadedOracle(g, p, TwoChoiceConfig{Radius: RadiusUnbounded})
	r := xrand.NewSource(32).Stream(0)
	loads := ballsbins.NewLoads(g.N())
	reps := p.Replicas(j)
	// Give distinct loads: oracle must always choose the global minimum.
	for i, v := range reps {
		for k := 0; k < i; k++ {
			loads.Add(int(v))
		}
	}
	for i := 0; i < 200; i++ {
		a := o.Assign(Request{Origin: 7, File: int32(j)}, loads, r)
		if a.Server != reps[0] {
			t.Fatalf("oracle chose %d (load %d), want %d (load 0)", a.Server, loads.Load(int(a.Server)), reps[0])
		}
	}
	if o.Name() != "least-loaded(r=inf)" {
		t.Fatalf("oracle name: %s", o.Name())
	}
}

func TestLeastLoadedOracleRadiusAndBackhaul(t *testing.T) {
	g, p := testWorld(15, 600, 1, 33)
	o := NewLeastLoadedOracle(g, p, TwoChoiceConfig{Radius: 2})
	r := xrand.NewSource(34).Stream(0)
	loads := ballsbins.NewLoads(g.N())
	if j := uncachedFile(p); j >= 0 {
		a := o.Assign(Request{Origin: 3, File: int32(j)}, loads, r)
		if !a.Backhaul {
			t.Fatalf("oracle should backhaul uncached file: %+v", a)
		}
	}
	j := cachedFile(p, 1)
	a := o.Assign(Request{Origin: 3, File: int32(j)}, loads, r)
	if a.Backhaul {
		t.Fatalf("oracle backhauled a cached file")
	}
}

func TestTwoChoiceConfigValidation(t *testing.T) {
	g, p := testWorld(5, 3, 1, 35)
	for name, fn := range map[string]func(){
		"neg choices": func() { NewTwoChoice(g, p, TwoChoiceConfig{Choices: -1}) },
		"bad radius":  func() { NewTwoChoice(g, p, TwoChoiceConfig{Radius: -7}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
	// Radius ≥ diameter normalizes to unbounded.
	s := NewTwoChoice(g, p, TwoChoiceConfig{Radius: 1000})
	if s.Radius() != RadiusUnbounded {
		t.Fatalf("huge radius not normalized: %d", s.Radius())
	}
	if s.Name() != "2-choice(r=inf)" {
		t.Fatalf("name: %s", s.Name())
	}
	if n := NewTwoChoice(g, p, TwoChoiceConfig{Radius: 1}).Name(); n != "2-choice(r=1)" {
		t.Fatalf("finite-radius name: %s", n)
	}
}

func TestGridPlacementMismatchPanics(t *testing.T) {
	g := grid.New(5, grid.Torus)
	p := cache.Place(9, 1, dist.NewUniform(3), cache.WithReplacement, xrand.NewSource(0).Stream(0))
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched sizes did not panic")
		}
	}()
	NewNearestReplica(g, p)
}

func TestAssignmentServerAlwaysValid(t *testing.T) {
	// Property: for random worlds and random requests, every strategy
	// returns a server in range that caches the file (or flags backhaul).
	prop := func(seed uint64, lRaw, kRaw, mRaw, radRaw uint8) bool {
		l := int(lRaw)%8 + 3
		k := int(kRaw)%40 + 1
		m := int(mRaw)%5 + 1
		g, p := testWorld(l, k, m, seed)
		radius := int(radRaw) % (g.Diameter() + 2)
		r := xrand.NewSource(seed + 1).Stream(0)
		loads := ballsbins.NewLoads(g.N())
		strategies := []Strategy{
			NewNearestReplica(g, p),
			NewTwoChoice(g, p, TwoChoiceConfig{Radius: radius}),
			NewTwoChoice(g, p, TwoChoiceConfig{Radius: radius, Choices: 1}),
			NewLeastLoadedOracle(g, p, TwoChoiceConfig{Radius: radius}),
			NewLeastLoadedOracle(g, p, TwoChoiceConfig{Radius: RadiusUnbounded}),
		}
		for trial := 0; trial < 30; trial++ {
			req := Request{Origin: int32(r.IntN(g.N())), File: int32(r.IntN(k))}
			for _, s := range strategies {
				a := s.Assign(req, loads, r)
				if a.Server < 0 || int(a.Server) >= g.N() {
					return false
				}
				if a.Backhaul {
					if len(p.Replicas(int(req.File))) != 0 || a.Server != req.Origin {
						return false
					}
					continue
				}
				if !p.Has(int(a.Server), int(req.File)) {
					return false
				}
				if int(a.Hops) != g.Dist(int(req.Origin), int(a.Server)) {
					return false
				}
				loads.Add(int(a.Server))
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNearestAdaptive(b *testing.B) {
	g, p := testWorld(45, 100, 1, 1)
	s := NewNearestReplica(g, p)
	r := xrand.NewSource(2).Stream(0)
	loads := ballsbins.NewLoads(g.N())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := Request{Origin: int32(r.IntN(g.N())), File: int32(r.IntN(100))}
		if len(p.Replicas(int(req.File))) == 0 {
			continue
		}
		_ = s.Assign(req, loads, r)
	}
}

func BenchmarkTwoChoiceUnbounded(b *testing.B) {
	g, p := testWorld(45, 500, 10, 1)
	s := NewTwoChoice(g, p, TwoChoiceConfig{Radius: RadiusUnbounded})
	r := xrand.NewSource(2).Stream(0)
	loads := ballsbins.NewLoads(g.N())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := Request{Origin: int32(r.IntN(g.N())), File: int32(r.IntN(500))}
		a := s.Assign(req, loads, r)
		loads.Add(int(a.Server))
	}
}

func BenchmarkTwoChoiceRadius8(b *testing.B) {
	g, p := testWorld(45, 500, 10, 1)
	s := NewTwoChoice(g, p, TwoChoiceConfig{Radius: 8})
	r := xrand.NewSource(2).Stream(0)
	loads := ballsbins.NewLoads(g.N())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := Request{Origin: int32(r.IntN(g.N())), File: int32(r.IntN(500))}
		a := s.Assign(req, loads, r)
		loads.Add(int(a.Server))
	}
}
