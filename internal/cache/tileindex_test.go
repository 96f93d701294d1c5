package cache

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/grid"
)

// tileWorlds spans library skew, topology, tile size and cache size.
func tileWorlds() []struct {
	name  string
	l, t  int
	topo  grid.Topology
	k, m  int
	gamma float64
} {
	return []struct {
		name  string
		l, t  int
		topo  grid.Topology
		k, m  int
		gamma float64
	}{
		{"uniform-torus", 12, 3, grid.Torus, 150, 2, 0},
		{"zipf-torus", 15, 4, grid.Torus, 60, 3, 1.2},
		{"uniform-grid", 10, 3, grid.Bounded, 80, 2, 0},
		{"tile1", 8, 1, grid.Torus, 40, 2, 0.8},
		{"clipped-tiles", 11, 4, grid.Torus, 50, 2, 0},
		{"dense", 6, 2, grid.Torus, 8, 4, 0},
	}
}

func buildIndexed(t *testing.T, l, ts int, topo grid.Topology, k, m int, gamma float64, seed uint64) (*grid.Grid, *Placement) {
	t.Helper()
	g := grid.New(l, topo)
	tl := g.NewTiling(ts)
	pl := NewPlacer(g.N(), m, k)
	pl.EnableTiles(tl)
	var pop dist.Popularity = dist.NewUniform(k)
	if gamma > 0 {
		pop = dist.NewZipf(k, gamma)
	}
	r := rand.New(rand.NewPCG(seed, seed^0x9e37))
	return g, pl.Place(pop, WithReplacement, r)
}

// TestTileIndexIntegrity: for every file, the directory's runs are
// non-empty, tile-ascending, node-ascending inside, hold only nodes of
// their tile and tile S_j exactly, in order; dense files carry a bitmap
// of exactly S_j and no runs.
func TestTileIndexIntegrity(t *testing.T) {
	for _, w := range tileWorlds() {
		t.Run(w.name, func(t *testing.T) {
			_, p := buildIndexed(t, w.l, w.t, w.topo, w.k, w.m, w.gamma, 42)
			ix := p.TileIndex()
			if ix == nil {
				t.Fatal("TileIndex not attached")
			}
			tl := ix.Tiling()
			denseSeen := 0
			for j := 0; j < p.K(); j++ {
				reps := p.Replicas(j)
				tiles, starts := ix.FileRuns(j)
				if bits := ix.FileBits(j); bits != nil {
					// Dense file: represented by its bitmap (exactly the
					// replica set), with an empty tile directory.
					denseSeen++
					var fromBits []int32
					for u := 0; u < p.N(); u++ {
						if bits[u>>6]&(1<<(uint(u)&63)) != 0 {
							fromBits = append(fromBits, int32(u))
						}
					}
					if want := slices.Sorted(slices.Values(reps)); !slices.Equal(fromBits, want) {
						t.Fatalf("file %d: bitmap holds %v, want S_j %v", j, fromBits, want)
					}
					if len(tiles) != 0 {
						t.Fatalf("file %d: dense file has %d tile runs, want none", j, len(tiles))
					}
					continue
				}
				covered := 0
				for d := range tiles {
					tile, start := tiles[d], starts[d]
					if d > 0 && tile <= tiles[d-1] {
						t.Fatalf("file %d: tile run order regressed at %d", j, d)
					}
					end := int32(len(reps))
					if d+1 < len(starts) {
						end = starts[d+1]
					}
					if end <= start {
						t.Fatalf("file %d: empty run %d", j, d)
					}
					for i := start; i < end; i++ {
						if tl.TileOf(reps[i]) != tile {
							t.Fatalf("file %d run %d: node %d is in tile %d, not %d", j, d, reps[i], tl.TileOf(reps[i]), tile)
						}
						if i > start && reps[i] <= reps[i-1] {
							t.Fatalf("file %d run %d: node order regressed", j, d)
						}
					}
					covered += int(end - start)
				}
				if covered != len(reps) {
					t.Fatalf("file %d: runs cover %d replicas, want %d", j, covered, len(reps))
				}
			}
			if w.name == "dense" && denseSeen == 0 {
				t.Fatal("dense fixture produced no bitmap files")
			}
		})
	}
}

// TestTileIndexReuseAcrossPlacements: rebuilding through the same Placer
// must leave the index consistent with the new placement (arenas reused,
// contents refreshed) and not disturb RNG-determinism of the placement
// itself: each S_j holds the nodes of an unindexed twin, in key order.
func TestTileIndexReuseAcrossPlacements(t *testing.T) {
	g := grid.New(12, grid.Torus)
	tl := g.NewTiling(3)
	pop := dist.NewZipf(100, 1.0)

	plain := NewPlacer(g.N(), 2, 100)
	indexed := NewPlacer(g.N(), 2, 100)
	indexed.EnableTiles(tl)
	r1 := rand.New(rand.NewPCG(5, 6))
	r2 := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 4; trial++ {
		pp := plain.Place(pop, WithReplacement, r1)
		pi := indexed.Place(pop, WithReplacement, r2)
		if pp.TileIndex() != nil {
			t.Fatal("plain placer grew a tile index")
		}
		if pi.TileIndex() == nil {
			t.Fatal("indexed placer lost its tile index")
		}
		for j := 0; j < 100; j++ {
			if got := slices.Sorted(slices.Values(pi.Replicas(j))); !slices.Equal(pp.Replicas(j), got) {
				t.Fatalf("trial %d file %d: index build perturbed the placement", trial, j)
			}
		}
		checkAgainstRebuild(t, pp, nil)
		checkAgainstRebuild(t, pi, tl)
	}
}

// TestTileIndexBuildAllocs: after warm-up, rebuilding placement + index
// through a reused Placer allocates nothing.
func TestTileIndexBuildAllocs(t *testing.T) {
	g := grid.New(20, grid.Torus)
	tl := g.NewTiling(4)
	pop := dist.NewZipf(200, 1.2)
	pl := NewPlacer(g.N(), 3, 200)
	pl.EnableTiles(tl)
	r := rand.New(rand.NewPCG(9, 9))
	pl.Place(pop, WithReplacement, r)
	pl.Place(pop, WithReplacement, r)
	if n := testing.AllocsPerRun(5, func() {
		pl.Place(pop, WithReplacement, r)
	}); n != 0 {
		t.Errorf("steady-state indexed Place allocates %.1f/op, want 0", n)
	}
}

// TestPlacementCloneDropsIndex: the public Place path and clone never
// leak builder-owned index arenas.
func TestPlacementCloneDropsIndex(t *testing.T) {
	g := grid.New(6, grid.Torus)
	r := rand.New(rand.NewPCG(1, 2))
	p := Place(g.N(), 2, dist.NewUniform(10), WithReplacement, r)
	if p.TileIndex() != nil {
		t.Fatal("package-level Place attached a tile index")
	}
}

// TestHasTPairBruteForce: Has and TPair agree with brute force over
// the node lists of plain (draw-order), indexed, churned (sorted, then
// mutated) and heterogeneous placements, including lists of more than 32
// files, where Has binary-searches S_j instead of scanning the list.
func TestHasTPairBruteForce(t *testing.T) {
	const side, k, maxCap = 6, 120, 40
	n := side * side
	g := grid.New(side, grid.Torus)
	pop := dist.NewZipf(k, 0.6)
	for _, tc := range []struct {
		name                 string
		m                    int
		mode                 Mode
		tiles, churn, hetero bool
	}{
		{name: "plain", m: 4},
		{name: "plain/long", m: maxCap, mode: WithoutReplacement},
		{name: "indexed", m: 4, tiles: true},
		{name: "indexed/long", m: maxCap, mode: WithoutReplacement, tiles: true},
		{name: "churned", m: maxCap, tiles: true, churn: true},
		{name: "hetero", m: 4, mode: WithoutReplacement, tiles: true, hetero: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := NewPlacer(n, tc.m, k)
			if tc.hetero {
				pl.EnableHetero(maxCap)
				pl.SetHetero(heteroCaps(n, maxCap), nil)
			}
			if tc.tiles {
				pl.EnableTiles(g.NewTiling(2))
			}
			if tc.churn {
				pl.EnableChurn()
			}
			r := rand.New(rand.NewPCG(6, 7))
			p := pl.Place(pop, tc.mode, r)
			if tc.churn {
				storm(p, r, nil, 300, nil)
			}
			long := 0
			for u := 0; u < n; u++ {
				files := p.NodeFiles(u)
				if len(files) > 32 {
					long++
				}
				for j := 0; j < k; j++ {
					if got, want := p.Has(u, j), slices.Contains(files, int32(j)); got != want {
						t.Fatalf("Has(%d, %d) = %v, want %v", u, j, got, want)
					}
				}
				for v := 0; v < n; v++ {
					want := 0
					for _, f := range files {
						if slices.Contains(p.NodeFiles(v), f) {
							want++
						}
					}
					if got := p.TPair(u, v); got != want {
						t.Fatalf("TPair(%d, %d) = %d, want %d", u, v, got, want)
					}
				}
			}
			if (tc.m > 32 || tc.hetero) && long == 0 {
				t.Fatal("no node list longer than 32; the S_j branch of Has never ran")
			}
		})
	}
}
