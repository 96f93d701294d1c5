package confgraph

import (
	"testing"

	"repro/internal/ballsbins"
	"repro/internal/cache"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/xrand"
)

func world(l, k, m int, seed uint64) (*grid.Grid, *cache.Placement) {
	g := grid.New(l, grid.Torus)
	p := cache.Place(g.N(), m, dist.NewUniform(k), cache.WithReplacement,
		xrand.NewSource(seed).Stream(0))
	return g, p
}

func TestBuildMatchesDefinition(t *testing.T) {
	g, p := world(8, 10, 2, 1)
	r := 2
	h := Build(g, p, r)
	// Brute-force the definition: u~v iff t(u,v) ≥ 1 and d(u,v) ≤ 2r.
	want := map[[2]int32]bool{}
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if p.TPair(u, v) > 0 && g.Dist(u, v) <= 2*r {
				want[[2]int32{int32(u), int32(v)}] = true
			}
		}
	}
	if len(want) != h.NumEdges() {
		t.Fatalf("edge count %d, want %d", h.NumEdges(), len(want))
	}
	for _, e := range h.Edges {
		if !want[e] {
			t.Fatalf("spurious edge %v", e)
		}
		if e[0] >= e[1] {
			t.Fatalf("edge %v not canonically ordered", e)
		}
	}
	// Degrees consistent with edges.
	deg := make([]int32, g.N())
	for _, e := range h.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	for u := range deg {
		if deg[u] != h.Degrees[u] {
			t.Fatalf("degree of %d: %d vs %d", u, h.Degrees[u], deg[u])
		}
	}
}

func TestEdgeInterface(t *testing.T) {
	g, p := world(6, 5, 2, 2)
	h := Build(g, p, 1)
	if h.NumEdges() == 0 {
		t.Skip("degenerate world")
	}
	u, v := h.Edge(0)
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() || u == v {
		t.Fatalf("bad edge endpoints %d %d", u, v)
	}
	if h.NumNodes() != g.N() {
		t.Fatalf("NumNodes %d", h.NumNodes())
	}
}

func TestStatsAndPrediction(t *testing.T) {
	// Lemma 3(a) regime approximation at n=2025: K=n, M=n^0.4≈21,
	// r=n^0.35≈14 gives α+2β≈1.1>1. Degrees should concentrate: CV small,
	// mean within a constant factor of Δ = M²|B_2r|/K.
	g, p := world(45, 2025, 21, 3)
	r := 14
	h := Build(g, p, r)
	ds := h.Stats(g, p, r)
	if ds.Isolated > 0 {
		t.Fatalf("%d isolated nodes in dense regime", ds.Isolated)
	}
	if ds.CV > 0.35 {
		t.Fatalf("degree CV %.3f too high for almost-regularity", ds.CV)
	}
	ratio := ds.Mean / ds.PredDelta
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("mean degree %.1f vs predicted Δ %.1f (ratio %.2f) outside Θ(1) band",
			ds.Mean, ds.PredDelta, ratio)
	}
	if ds.Min == 0 || ds.Max > 3*ds.Min {
		t.Fatalf("graph not almost-regular within factor 3: min %d max %d", ds.Min, ds.Max)
	}
	if ds.NumEdges != h.NumEdges() {
		t.Fatal("stats edge count mismatch")
	}
}

func TestTheorem5ProcessOnConfigGraph(t *testing.T) {
	// End-to-end: run the Kenthapadi–Panigrahy allocation on H built in
	// the Theorem 4 regime; max load should be small (≤ 2-choice-like),
	// far below one-choice.
	g, p := world(45, 2025, 21, 5)
	h := Build(g, p, 14)
	r := xrand.NewSource(6).Stream(0)
	const trials = 5
	sumH, sumOne := 0, 0
	for i := 0; i < trials; i++ {
		sumH += ballsbins.GraphAllocate(h, g.N(), r).Max()
		sumOne += ballsbins.OneChoice(g.N(), g.N(), r).Max()
	}
	if !(float64(sumH)/trials < float64(sumOne)/trials-1) {
		t.Fatalf("graph allocation on H (%.2f) not clearly below one-choice (%.2f)",
			float64(sumH)/trials, float64(sumOne)/trials)
	}
}

func BenchmarkBuildN2025(b *testing.B) {
	g, p := world(45, 500, 10, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Build(g, p, 5)
	}
}
