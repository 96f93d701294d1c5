package cache

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/xrand"
)

func TestModeString(t *testing.T) {
	if WithReplacement.String() != "with-replacement" ||
		WithoutReplacement.String() != "without-replacement" ||
		Mode(7).String() != "Mode(7)" {
		t.Fatal("unexpected Mode strings")
	}
}

func TestPlacePanics(t *testing.T) {
	r := xrand.NewSource(0).Stream(0)
	pop := dist.NewUniform(5)
	for name, fn := range map[string]func(){
		"n=0":      func() { Place(0, 1, pop, WithReplacement, r) },
		"m=0":      func() { Place(1, 0, pop, WithReplacement, r) },
		"bad mode": func() { Place(1, 1, pop, Mode(9), r) },
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
}

// checkInvariants verifies structural consistency between the forward map
// (nodeFiles) and the inverted index (replicas): node lists hold distinct
// in-range files, replica segments hold strictly ascending nodes, and the
// two are set-equal. Node-list order is not asserted — only churn-enabled
// placements sort their lists (checkAgainstRebuild asserts that order).
func checkInvariants(t *testing.T, p *Placement) {
	t.Helper()
	totalFromNodes := 0
	for u := 0; u < p.N(); u++ {
		files := p.NodeFiles(u)
		if len(files) > p.M() || len(files) == 0 {
			t.Fatalf("node %d has %d distinct files, want 1..%d", u, len(files), p.M())
		}
		for i, f := range files {
			if f < 0 || int(f) >= p.K() {
				t.Fatalf("node %d file %d out of range", u, f)
			}
			if slices.Contains(files[:i], f) {
				t.Fatalf("node %d duplicate file %d", u, f)
			}
			if _, ok := slices.BinarySearch(p.Replicas(int(f)), int32(u)); !ok {
				t.Fatalf("node %d caches file %d but S_%d = %v lacks it", u, f, f, p.Replicas(int(f)))
			}
		}
		totalFromNodes += len(files)
		if p.T(u) != len(files) {
			t.Fatalf("T(%d) = %d, want %d", u, p.T(u), len(files))
		}
	}
	// Replica lists must be the exact inverse: with every node entry
	// found above, equal totals and distinct segment entries make the
	// two set-equal.
	totalFromReplicas := 0
	cached := 0
	for j := 0; j < p.K(); j++ {
		reps := p.Replicas(j)
		totalFromReplicas += len(reps)
		if len(reps) > 0 {
			cached++
		}
		for i := 1; i < len(reps); i++ {
			if reps[i] <= reps[i-1] {
				t.Fatalf("replicas of %d not strictly ascending: %v", j, reps)
			}
		}
		for _, u := range reps {
			if !slices.Contains(p.NodeFiles(int(u)), int32(j)) || !p.Has(int(u), j) {
				t.Fatalf("replica index says node %d caches %d but its list %v disagrees", u, j, p.NodeFiles(int(u)))
			}
		}
	}
	if totalFromNodes != totalFromReplicas {
		t.Fatalf("index mismatch: %d node entries vs %d replica entries", totalFromNodes, totalFromReplicas)
	}
	if len(p.CachedFiles()) != cached {
		t.Fatalf("CachedFiles has %d entries, want %d", len(p.CachedFiles()), cached)
	}
	if p.UncachedCount() != p.K()-cached {
		t.Fatalf("UncachedCount = %d, want %d", p.UncachedCount(), p.K()-cached)
	}
}

func TestPlaceInvariantsProperty(t *testing.T) {
	prop := func(seed uint64, nRaw, kRaw, mRaw uint8, zipf bool) bool {
		n := int(nRaw)%40 + 1
		k := int(kRaw)%30 + 1
		m := int(mRaw)%10 + 1
		var pop dist.Popularity
		if zipf {
			pop = dist.NewZipf(k, 0.8)
		} else {
			pop = dist.NewUniform(k)
		}
		r := xrand.NewSource(seed).Stream(0)
		for _, mode := range []Mode{WithReplacement, WithoutReplacement} {
			p := Place(n, m, pop, mode, r)
			checkInvariants(t, p) // Fatals with full context on violation
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceInvariantsLarge(t *testing.T) {
	r := xrand.NewSource(7).Stream(0)
	p := Place(2025, 10, dist.NewUniform(500), WithReplacement, r)
	checkInvariants(t, p)
}

func TestWithoutReplacementAlwaysDistinctM(t *testing.T) {
	r := xrand.NewSource(3).Stream(0)
	p := Place(200, 8, dist.NewZipf(50, 1.5), WithoutReplacement, r)
	for u := 0; u < p.N(); u++ {
		if p.T(u) != 8 {
			t.Fatalf("node %d has t(u)=%d, want exactly 8 without replacement", u, p.T(u))
		}
	}
}

func TestWithoutReplacementWholeLibrary(t *testing.T) {
	r := xrand.NewSource(3).Stream(0)
	p := Place(10, 20, dist.NewUniform(5), WithoutReplacement, r)
	for u := 0; u < p.N(); u++ {
		if p.T(u) != 5 {
			t.Fatalf("node %d caches %d files, want all 5", u, p.T(u))
		}
	}
}

func TestWithoutReplacementSkewedZipf(t *testing.T) {
	// Extremely skewed Zipf forces the fillRemainder fallback.
	r := xrand.NewSource(9).Stream(0)
	p := Place(50, 30, dist.NewZipf(40, 6), WithoutReplacement, r)
	for u := 0; u < p.N(); u++ {
		if p.T(u) != 30 {
			t.Fatalf("node %d has %d distinct files, want 30", u, p.T(u))
		}
	}
	checkInvariants(t, p)
}

// TestWithoutReplacementStallAllocs: a without-replacement build whose
// popularity rejection stalls allocates nothing once warm. The world is
// a two-choices one (20×20 torus, tile index) with K = 200, M = 60 and
// Zipf γ 2.5, where the marked sweep completes the draw at most nodes;
// its scratch belongs to the Placer, which sizes it at the first stall.
func TestWithoutReplacementStallAllocs(t *testing.T) {
	g := grid.New(20, grid.Torus)
	pop := dist.NewZipf(200, 2.5)
	pl := NewPlacer(g.N(), 60, 200)
	pl.EnableTiles(g.NewTiling(4))
	r := rand.New(rand.NewPCG(2, 5))
	pl.Place(pop, WithoutReplacement, r)
	if pl.missing == nil {
		t.Fatal("rejection never stalled; the marked sweep is not exercised")
	}
	if n := testing.AllocsPerRun(5, func() {
		pl.Place(pop, WithoutReplacement, r)
	}); n != 0 {
		t.Errorf("steady-state stalling Place allocates %.1f/op, want 0", n)
	}
}

func TestM1TUIsOne(t *testing.T) {
	r := xrand.NewSource(1).Stream(0)
	p := Place(100, 1, dist.NewUniform(50), WithReplacement, r)
	for u := 0; u < 100; u++ {
		if p.T(u) != 1 {
			t.Fatalf("M=1 node %d has t(u)=%d", u, p.T(u))
		}
	}
}

func TestHas(t *testing.T) {
	r := xrand.NewSource(2).Stream(0)
	p := Place(30, 3, dist.NewUniform(10), WithReplacement, r)
	for u := 0; u < p.N(); u++ {
		inSet := map[int32]bool{}
		for _, f := range p.NodeFiles(u) {
			inSet[f] = true
		}
		for j := 0; j < p.K(); j++ {
			if p.Has(u, j) != inSet[int32(j)] {
				t.Fatalf("Has(%d, %d) = %v inconsistent", u, j, p.Has(u, j))
			}
		}
	}
}

func TestTPair(t *testing.T) {
	r := xrand.NewSource(4).Stream(0)
	p := Place(40, 5, dist.NewUniform(12), WithReplacement, r)
	for u := 0; u < p.N(); u++ {
		for v := 0; v < p.N(); v++ {
			want := 0
			for _, f := range p.NodeFiles(u) {
				if p.Has(v, int(f)) {
					want++
				}
			}
			if got := p.TPair(u, v); got != want {
				t.Fatalf("TPair(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
}

func TestTPairSelfEqualsT(t *testing.T) {
	r := xrand.NewSource(5).Stream(0)
	p := Place(25, 4, dist.NewUniform(9), WithReplacement, r)
	for u := 0; u < p.N(); u++ {
		if p.TPair(u, u) != p.T(u) {
			t.Fatalf("TPair(u,u) = %d, T(u) = %d", p.TPair(u, u), p.T(u))
		}
	}
}

func TestReplicaCountsMatchBinomial(t *testing.T) {
	// Each node caches file j with prob q = 1-(1-p_j)^M independently, so
	// E|S_j| = n·q. Check the empirical mean over files.
	r := xrand.NewSource(6).Stream(0)
	n, k, m := 2000, 100, 5
	p := Place(n, m, dist.NewUniform(k), WithReplacement, r)
	q := 1 - math.Pow(1-1.0/float64(k), float64(m))
	want := float64(n) * q
	total := 0
	for j := 0; j < k; j++ {
		total += len(p.Replicas(j))
	}
	got := float64(total) / float64(k)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("mean replica count %v, want %v ± 5%%", got, want)
	}
}

func TestZipfPlacementSkew(t *testing.T) {
	// Proportional placement must replicate popular files more.
	r := xrand.NewSource(8).Stream(0)
	p := Place(3000, 2, dist.NewZipf(100, 1.2), WithReplacement, r)
	top := len(p.Replicas(0))
	bottom := len(p.Replicas(99))
	if top <= bottom {
		t.Fatalf("rank-0 file has %d replicas, rank-99 has %d; placement ignores popularity", top, bottom)
	}
}

func TestGoodnessExhaustiveVsSampled(t *testing.T) {
	r := xrand.NewSource(10).Stream(0)
	p := Place(60, 4, dist.NewUniform(30), WithReplacement, r)
	exact := p.CheckGoodness(0, r)
	if exact.Pairs != 60*59/2 {
		t.Fatalf("exhaustive pair count %d", exact.Pairs)
	}
	sampled := p.CheckGoodness(500, r)
	if sampled.MaxPairT > exact.MaxPairT {
		t.Fatalf("sampled max t(u,v) %d exceeds exhaustive %d", sampled.MaxPairT, exact.MaxPairT)
	}
	if exact.MinT < 1 || exact.MeanT < 1 {
		t.Fatalf("degenerate t(u) stats: %+v", exact)
	}
}

// TestGoodnessHeteroMinT: MinT is the smallest t(u) over the nodes
// themselves, not capped at M+1 — on a heterogeneous placement whose
// every capacity exceeds M, each node caches Cap(u) distinct files.
func TestGoodnessHeteroMinT(t *testing.T) {
	const n, m, capacity = 16, 2, 6
	pl := NewPlacer(n, m, 40)
	pl.EnableHetero(capacity)
	caps := make([]int32, n)
	for u := range caps {
		caps[u] = capacity
	}
	pl.SetHetero(caps, nil)
	r := xrand.NewSource(13).Stream(0)
	p := pl.Place(dist.NewUniform(40), WithoutReplacement, r)
	g := p.CheckGoodness(0, r)
	if g.MinT != capacity || g.MeanT != capacity {
		t.Fatalf("MinT %d, MeanT %v; every node caches %d files", g.MinT, g.MeanT, capacity)
	}
}

func TestGoodnessLemma2Regime(t *testing.T) {
	// Lemma 2 regime: K = n, M = n^α with α < 1/2. For n = 2025, α ≈ 0.35
	// gives M ≈ 14. Expect t(u) ≥ δM with δ = (1-α)/3 and small t(u,v).
	r := xrand.NewSource(11).Stream(0)
	n := 2025
	m := 14
	p := Place(n, m, dist.NewUniform(n), WithReplacement, r)
	g := p.CheckGoodness(20000, r)
	delta := (1.0 - 0.35) / 3
	mu := 5 // µ ≥ 5/(1-2α) ≈ 17 suffices per Lemma 2; empirically pairs share ≪ that
	if !g.IsGood(delta, mu+1, m) {
		t.Fatalf("placement not (δ,µ)-good in Lemma 2 regime: %+v", g)
	}
}

func TestPlacementDeterminism(t *testing.T) {
	p1 := Place(100, 3, dist.NewUniform(20), WithReplacement, xrand.NewSource(42).Stream(9))
	p2 := Place(100, 3, dist.NewUniform(20), WithReplacement, xrand.NewSource(42).Stream(9))
	for u := 0; u < 100; u++ {
		a, b := p1.NodeFiles(u), p2.NodeFiles(u)
		if len(a) != len(b) {
			t.Fatalf("node %d differs", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d file %d differs", u, i)
			}
		}
	}
}

func BenchmarkPlaceN2025M10(b *testing.B) {
	pop := dist.NewUniform(500)
	src := xrand.NewSource(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Place(2025, 10, pop, WithReplacement, src.Stream(uint64(i)))
	}
}

func BenchmarkTPair(b *testing.B) {
	p := Place(2025, 100, dist.NewUniform(2000), WithReplacement, xrand.NewSource(1).Stream(0))
	for i := 0; i < b.N; i++ {
		_ = p.TPair(i%2025, (i*7+13)%2025)
	}
}

// BenchmarkPlacePaperScale measures the placement build at the acceptance
// point (n=4900, M=10, K=10^4 Zipf γ=1.2).
func BenchmarkPlacePaperScale(b *testing.B) {
	pop := dist.NewZipf(10000, 1.2)
	src := xrand.NewSource(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Place(4900, 10, pop, WithReplacement, src.Stream(uint64(i)))
	}
}

// BenchmarkPlace times the placement build — slot draws, the replica CSR
// and, when tiled, the tile index — at perfbench's two shapes: static
// (100×100 torus, tiles of 5, K = 10⁴ Zipf 1.2, M = 10) and dynamic
// (70×70 torus, tiles of 7, the same library, power-law capacities up to
// 8M and a quarter of the nodes vacant). untiled builds no tile index,
// tiled adds it, and tiled-sorted is a churn-enabled build, whose node
// lists are sorted; so tiled − untiled reads as the tile-index build and
// tiled-sorted − tiled as the sort.
func BenchmarkPlace(b *testing.B) {
	const m, k = 10, 10000
	pop := dist.NewZipf(k, 1.2)
	for _, shape := range []struct {
		name       string
		side, tile int
		hetero     bool
	}{
		{"static", 100, 5, false},
		{"dynamic", 70, 7, true},
	} {
		g := grid.New(shape.side, grid.Torus)
		tl := g.NewTiling(shape.tile)
		n := g.N()
		var caps []int32
		var vacant []bool
		if shape.hetero {
			r := rand.New(rand.NewPCG(17, 19))
			caps = powerLawCaps(n, m, r)
			vacant = make([]bool, n)
			for u := range vacant {
				vacant[u] = r.IntN(4) == 0
			}
		}
		for _, layout := range []struct {
			name          string
			tiles, sorted bool
		}{
			{"untiled", false, false},
			{"tiled", true, false},
			{"tiled-sorted", true, true},
		} {
			b.Run(shape.name+"/"+layout.name, func(b *testing.B) {
				pl := NewPlacer(n, m, k)
				if shape.hetero {
					pl.EnableHetero(8 * m)
				}
				if layout.tiles {
					pl.EnableTiles(tl)
				}
				if layout.sorted {
					pl.EnableChurn()
				}
				if shape.hetero {
					pl.SetHetero(caps, vacant)
				}
				r := rand.New(rand.NewPCG(23, 29))
				pl.Place(pop, WithReplacement, r) // warm-up
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pl.Place(pop, WithReplacement, r)
				}
			})
		}
	}
}
