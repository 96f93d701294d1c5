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
