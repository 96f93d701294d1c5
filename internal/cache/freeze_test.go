package cache

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/grid"
)

// buildMutableIndexed returns a churn-enabled, tile-indexed placement
// plus its tiling — the exact layout the served mode snapshots.
func buildMutableIndexed(t *testing.T, seed uint64) (*Placement, *grid.Tiling) {
	t.Helper()
	const side, ts, k, m = 8, 4, 60, 3
	g := grid.New(side, grid.Torus)
	tl := g.NewTiling(ts)
	pl := NewPlacer(g.N(), m, k)
	pl.EnableChurn()
	pl.EnableTiles(tl)
	r := rand.New(rand.NewPCG(seed, 1))
	return pl.Place(dist.NewZipf(k, 0.8), WithReplacement, r), tl
}

// TestCloneIndependence mutates the original after cloning (and the
// clone after that) and checks that neither side observes the other's
// mutations, with full structural validation of both.
func TestCloneIndependence(t *testing.T) {
	p, tl := buildMutableIndexed(t, 7)
	c := p.Clone()
	if !c.Mutable() {
		t.Fatal("clone of a mutable placement is not mutable")
	}
	if c.TileIndex() == nil {
		t.Fatal("clone dropped the tile index")
	}

	// Snapshot the clone's view of every file before mutating p.
	before := make([][]int32, p.K())
	for j := range before {
		before[j] = slices.Clone(c.Replicas(j))
	}

	r := rand.New(rand.NewPCG(11, 2))
	storm(p, r, nil, 200, nil)
	for j := range before {
		if !slices.Equal(c.Replicas(j), before[j]) {
			t.Fatalf("file %d: mutating the original changed the clone", j)
		}
	}
	checkAgainstRebuild(t, p, tl)
	checkAgainstRebuild(t, c, tl)

	// Mutate the clone; the original must hold its post-storm state.
	after := make([][]int32, p.K())
	for j := range after {
		after[j] = slices.Clone(p.Replicas(j))
	}
	storm(c, r, nil, 200, nil)
	for j := range after {
		if !slices.Equal(p.Replicas(j), after[j]) {
			t.Fatalf("file %d: mutating the clone changed the original", j)
		}
	}
	checkAgainstRebuild(t, c, tl)
}

// TestCloneSurvivesPlacerReuse checks that a clone is decoupled from the
// Placer arenas: re-placing through the same Placer must not disturb it.
func TestCloneSurvivesPlacerReuse(t *testing.T) {
	const side, ts, k, m = 6, 3, 40, 2
	g := grid.New(side, grid.Torus)
	tl := g.NewTiling(ts)
	pl := NewPlacer(g.N(), m, k)
	pl.EnableChurn()
	pl.EnableTiles(tl)
	r := rand.New(rand.NewPCG(3, 9))
	p := pl.Place(dist.NewUniform(k), WithReplacement, r)
	c := p.Clone()
	before := make([][]int32, k)
	for j := range before {
		before[j] = slices.Clone(c.Replicas(j))
	}
	pl.Place(dist.NewUniform(k), WithReplacement, r) // overwrites p's arenas
	for j := range before {
		if !slices.Equal(c.Replicas(j), before[j]) {
			t.Fatalf("file %d: placer reuse changed the clone", j)
		}
	}
	checkAgainstRebuild(t, c, tl)
}

// TestLivenessClone checks deep-copy semantics of the liveness tracker,
// including the per-tile live counts.
func TestLivenessClone(t *testing.T) {
	g := grid.New(6, grid.Torus)
	tl := g.NewTiling(3)
	lv := NewLiveness(g.N())
	lv.BindTiling(tl)
	lv.Kill(5)
	lv.Kill(17)
	c := lv.Clone()
	if c.LiveCount() != lv.LiveCount() || c.Live(5) || c.Live(17) || !c.Live(0) {
		t.Fatal("clone does not reproduce the liveness state")
	}
	lv.Kill(9)
	c.Revive(5)
	if lv.Live(5) {
		t.Fatal("reviving in the clone leaked into the original")
	}
	if !c.Live(9) {
		t.Fatal("killing in the original leaked into the clone")
	}
	for tid := int32(0); tid < int32(tl.Tiles()); tid++ {
		want := int32(0)
		order, off := tl.Order(), tl.OrderOff()
		for _, u := range order[off[tid]:off[tid+1]] {
			if c.Live(int(u)) {
				want++
			}
		}
		if c.TileLive(tid) != want {
			t.Fatalf("tile %d: clone live count %d, want %d", tid, c.TileLive(tid), want)
		}
	}
}

// arrivalWorld builds the dynamic shape's placement at a small size: a
// hetero-, tile- and churn-enabled Placer with power-law capacities up
// to 8M, a quarter of the nodes vacant, and joins staged and spliced in
// two batches. The last node is full-sized and never vacant, so its slab
// ends the used arena with room for a migration into it.
func arrivalWorld(t testing.TB, side int, seed uint64) (*Placer, *Placement, *grid.Tiling) {
	t.Helper()
	const m, k = 4, 400
	g := grid.New(side, grid.Torus)
	tl := g.NewTiling(side / 4)
	n := g.N()
	r := rand.New(rand.NewPCG(seed, 3))
	caps := powerLawCaps(n, m, r)
	caps[n-1] = 8 * m
	vacant := make([]bool, n)
	var queue []int32
	for u := 0; u < n-1; u++ {
		if vacant[u] = r.IntN(4) == 0; vacant[u] {
			queue = append(queue, int32(u))
		}
	}
	pl := NewPlacer(n, m, k)
	pl.EnableHetero(8 * m)
	pl.EnableTiles(tl)
	pl.EnableChurn()
	pl.SetHetero(caps, vacant)
	pop := dist.NewZipf(k, 1.2)
	p := pl.Place(pop, WithReplacement, r)
	for batch := 0; batch < 2; batch++ {
		for _, u := range queue[:len(queue)/4] {
			pl.StageArrival(u, pop, WithReplacement, r)
		}
		queue = queue[len(queue)/4:]
		pl.SpliceArrivals()
	}
	return pl, p, tl
}

// sameReads fails unless c answers every read of the placement API as p
// does: NodeFiles, Has, Replicas, and the tile index's FileRuns and
// FileBits.
func sameReads(t *testing.T, c, p *Placement) {
	t.Helper()
	for u := 0; u < p.N(); u++ {
		if !slices.Equal(c.NodeFiles(u), p.NodeFiles(u)) || c.Cap(u) != p.Cap(u) {
			t.Fatalf("node %d: files %v (cap %d), source %v (cap %d)", u, c.NodeFiles(u), c.Cap(u), p.NodeFiles(u), p.Cap(u))
		}
		for j := 0; j < p.K(); j += 7 {
			if c.Has(u, j) != p.Has(u, j) {
				t.Fatalf("Has(%d, %d) = %v, source %v", u, j, c.Has(u, j), p.Has(u, j))
			}
		}
	}
	for j := 0; j < p.K(); j++ {
		if !slices.Equal(c.Replicas(j), p.Replicas(j)) {
			t.Fatalf("file %d: replicas differ", j)
		}
	}
	sameTileIndex(t, c, p)
}

// TestCloneCopiesUsedSlabs: a clone of a power-law arrival placement
// holds only the Σ M_u slab entries in use, not the n·maxCap arena,
// answers every read as its source does, and takes a migration into the
// last node's slab, which ends the used arena.
func TestCloneCopiesUsedSlabs(t *testing.T) {
	_, p, tl := arrivalWorld(t, 16, 5)
	c := p.Clone()
	if used := int(p.capOff[p.n]); len(c.files) != used || used >= len(p.files) {
		t.Fatalf("clone holds %d slab entries; %d in use of the source's %d", len(c.files), used, len(p.files))
	}
	if c.CopyBytes() != p.CopyBytes() {
		t.Fatalf("clone copies %d bytes, source %d", c.CopyBytes(), p.CopyBytes())
	}
	sameReads(t, c, p)

	v := int32(p.n - 1)
	if c.T(int(v)) >= c.Cap(int(v)) {
		t.Fatalf("last node is full (%d of %d); pick another seed", c.T(int(v)), c.Cap(int(v)))
	}
	j := -1
	for _, f := range c.CachedFiles() {
		if !c.Has(int(v), int(f)) && c.Replicas(int(f))[0] != v {
			j = int(f)
			break
		}
	}
	at, _ := slices.BinarySearch(c.NodeFiles(int(v)), int32(j))
	c.ReplaceReplica(j, 0, v, at)
	if !c.Has(int(v), j) || p.Has(int(v), j) {
		t.Fatalf("migrating file %d into node %d: clone has it %v, source %v", j, v, c.Has(int(v), j), p.Has(int(v), j))
	}
	checkAgainstRebuild(t, c, tl)
	checkAgainstRebuild(t, p, tl)
}

// TestCopyIntoReusesArenas: CopyInto makes the destination a deep copy
// of each source in turn — placements of different sizes from one
// Placer — and reuses the destination's arenas once they are large
// enough, so a copy of a source no larger than the first allocates
// nothing.
func TestCopyIntoReusesArenas(t *testing.T) {
	pl, p, tl := arrivalWorld(t, 16, 9)
	var dst Placement
	p.CopyInto(&dst)
	sameReads(t, &dst, p)
	checkAgainstRebuild(t, &dst, tl)

	// The source moves on; the copy does not.
	before := make([][]int32, p.K())
	for j := range before {
		before[j] = slices.Clone(dst.Replicas(j))
	}
	r := rand.New(rand.NewPCG(1, 1))
	if moved, swapped := storm(p, r, pl.vacant, 100, nil); moved+swapped == 0 {
		t.Fatal("the storm moved no replica")
	}
	for j := range before {
		if !slices.Equal(dst.Replicas(j), before[j]) {
			t.Fatalf("file %d: mutating the source changed its copy", j)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { p.CopyInto(&dst) }); allocs != 0 {
		t.Fatalf("CopyInto into a destination that held this placement allocates %.0f times", allocs)
	}
	sameReads(t, &dst, p)
	checkAgainstRebuild(t, &dst, tl)

	lv := NewLiveness(p.N())
	lv.BindTiling(tl)
	lv.Kill(3)
	var live Liveness
	lv.CopyInto(&live)
	lv.Kill(4)
	if live.Live(3) || !live.Live(4) || live.LiveCount() != p.N()-1 || live.CopyBytes() != lv.CopyBytes() {
		t.Fatal("liveness copy does not hold the source's state at the copy")
	}
	if allocs := testing.AllocsPerRun(10, func() { lv.CopyInto(&live) }); allocs != 0 {
		t.Fatalf("Liveness.CopyInto allocates %.0f times", allocs)
	}
}

// cloneSink keeps BenchmarkClone's copies alive.
var cloneSink *Placement

// BenchmarkClone times one deep copy of perfbench's dynamic placement
// (70×70 torus, tiles of 7, K = 10⁴ Zipf 1.2, M = 10, power-law
// capacities up to 8M, a quarter of the nodes vacant, sorted lists):
// Clone into fresh arenas, as the served mutator publishes, and CopyInto
// a destination that already holds one, as a chunk view is refreshed.
func BenchmarkClone(b *testing.B) {
	const side, m, k = 70, 10, 10000
	g := grid.New(side, grid.Torus)
	n := g.N()
	r := rand.New(rand.NewPCG(17, 19))
	caps := powerLawCaps(n, m, r)
	vacant := make([]bool, n)
	for u := range vacant {
		vacant[u] = r.IntN(4) == 0
	}
	pl := NewPlacer(n, m, k)
	pl.EnableHetero(8 * m)
	pl.EnableTiles(g.NewTiling(7))
	pl.EnableChurn()
	pl.SetHetero(caps, vacant)
	p := pl.Place(dist.NewZipf(k, 1.2), WithReplacement, r)
	b.Run("clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cloneSink = p.Clone()
		}
	})
	b.Run("copy-into", func(b *testing.B) {
		var dst Placement
		p.CopyInto(&dst)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.CopyInto(&dst)
		}
	})
}
