package cache

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/grid"
)

// heteroCaps returns a mixed capacity vector in [1, maxCap] with every
// value hit, the deterministic skew the variable-stride tests run under.
func heteroCaps(n, maxCap int) []int32 {
	caps := make([]int32, n)
	for u := range caps {
		caps[u] = int32(1 + u%maxCap)
	}
	return caps
}

// TestHeteroDegenerateMatchesHomogeneous: a hetero-enabled Placer whose
// capacity vector is uniformly M must reproduce the homogeneous engine's
// placement draw for draw — same RNG history, same node sets, same
// replica CSR, same cached set — across placement modes, with and
// without the tile index and EnableChurn. The variable-stride slabs
// (per-node capOff offsets instead of the M stride) are a pure layout
// change; node lists compare as sorted copies because only EnableChurn
// sorts them.
func TestHeteroDegenerateMatchesHomogeneous(t *testing.T) {
	const side, m, k = 8, 3, 60
	n := side * side
	g := grid.New(side, grid.Torus)
	pop := dist.NewZipf(k, 1.0)
	caps := make([]int32, n)
	for u := range caps {
		caps[u] = m
	}
	for _, mode := range []Mode{WithReplacement, WithoutReplacement} {
		for _, layout := range []struct {
			name          string
			tiles, mutate bool
		}{
			{name: "plain"},
			{name: "tiles", tiles: true},
			{name: "churn", mutate: true},
			{name: "churn+tiles", tiles: true, mutate: true},
		} {
			r1 := rand.New(rand.NewPCG(7, 9))
			r2 := rand.New(rand.NewPCG(7, 9))
			plain := NewPlacer(n, m, k)
			het := NewPlacer(n, m, k)
			het.EnableHetero(m)
			if layout.tiles {
				tl := g.NewTiling(2)
				plain.EnableTiles(tl)
				het.EnableTiles(tl)
			}
			ref := plain.Place(pop, mode, r1)
			if layout.mutate {
				het.EnableChurn()
			}
			het.SetHetero(caps, nil)
			got := het.Place(pop, mode, r2)
			for u := 0; u < n; u++ {
				if got.Cap(u) != m {
					t.Fatalf("mode=%v %s node %d: Cap=%d, want %d", mode, layout.name, u, got.Cap(u), m)
				}
				gf := slices.Sorted(slices.Values(got.NodeFiles(u)))
				rf := slices.Sorted(slices.Values(ref.NodeFiles(u)))
				if !slices.Equal(rf, gf) {
					t.Fatalf("mode=%v %s node %d: files %v != %v", mode, layout.name, u, gf, rf)
				}
			}
			for j := 0; j < k; j++ {
				if !slices.Equal(ref.Replicas(j), got.Replicas(j)) {
					t.Fatalf("mode=%v %s file %d: replicas differ", mode, layout.name, j)
				}
			}
			if !slices.Equal(ref.CachedFiles(), got.CachedFiles()) {
				t.Fatalf("mode=%v %s: cached sets differ", mode, layout.name)
			}
		}
	}
}

// TestHeteroStormAgainstRebuild is the variable-stride extension of
// TestReplaceReplicaStorm: over a mixed-capacity placement with vacant
// nodes, random legal migration/swap batches interleave with batches of
// node arrivals (which splice the joining nodes into the replica CSR
// and tile index in place), and after every batch each incremental
// structure must be set-equal to a from-scratch rebuild. This is the
// property contract that lets churn and arrivals compose mid-trial. It
// fails unless the storms drove every branch of the S_j splice.
func TestHeteroStormAgainstRebuild(t *testing.T) {
	const side, m, k, maxCap = 8, 3, 60, 6
	n := side * side
	g := grid.New(side, grid.Torus)
	caps := heteroCaps(n, maxCap)
	var branches branchCounts
	for _, tc := range []struct {
		name  string
		pop   dist.Popularity
		tiles bool
		mode  Mode
	}{
		{name: "uniform/plain", pop: dist.NewUniform(k)},
		{name: "uniform/tiles", pop: dist.NewUniform(k), tiles: true},
		{name: "zipf/tiles", pop: dist.NewZipf(k, 1.2), tiles: true},
		{name: "zipf/tiles/without-replacement", pop: dist.NewZipf(k, 1.2), tiles: true, mode: WithoutReplacement},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(0xBEEF, 21))
			pl := NewPlacer(n, m, k)
			pl.EnableHetero(maxCap)
			var tl *grid.Tiling
			if tc.tiles {
				tl = g.NewTiling(2)
				pl.EnableTiles(tl)
			}
			pl.EnableChurn()
			vacant := make([]bool, n)
			var vacantList []int32
			for u := 0; u < n; u += 5 {
				vacant[u] = true
				vacantList = append(vacantList, int32(u))
			}
			pl.SetHetero(caps, vacant)
			p := pl.Place(tc.pop, tc.mode, r)
			for _, u := range vacantList {
				if p.T(int(u)) != 0 {
					t.Fatalf("vacant node %d placed with %d files", u, p.T(int(u)))
				}
			}
			checkAgainstRebuild(t, p, tl)
			moved, swapped, arrived := 0, 0, 0
			for batch := 0; batch < 24; batch++ {
				mv, sw := storm(p, r, vacant, 25, &branches)
				moved, swapped = moved+mv, swapped+sw
				if batch%4 == 3 {
					for joins := 1 + r.IntN(3); joins > 0 && len(vacantList) > 0; joins-- {
						i := r.IntN(len(vacantList))
						u := vacantList[i]
						vacantList[i] = vacantList[len(vacantList)-1]
						vacantList = vacantList[:len(vacantList)-1]
						pl.StageArrival(u, tc.pop, tc.mode, r)
						if vacant[u] || p.T(int(u)) == 0 {
							t.Fatalf("arrival left node %d vacant or empty", u)
						}
						arrived++
					}
					pl.SpliceArrivals()
				}
				checkAgainstRebuild(t, p, tl)
			}
			// Without-replacement fills every node to capacity, so plain
			// migrations are degenerate there (see
			// TestWithoutReplacementChurnDegenerate) — churn is swap-only.
			if (moved == 0 && tc.mode != WithoutReplacement) || swapped == 0 || arrived < 3 {
				t.Fatalf("storm too tame (moved=%d swapped=%d arrived=%d); test is vacuous",
					moved, swapped, arrived)
			}
			// A re-Place on the same Placer must fully reset the arenas.
			pl.SetHetero(caps, nil)
			p = pl.Place(tc.pop, tc.mode, r)
			checkAgainstRebuild(t, p, tl)
		})
	}
	branches.check(t)
}

// TestHeteroArriveNodeRepadsDirectory pins the grow half of the
// directory-capacity contract: an arrival grows |S_j| for every file the
// joining node drew, and the join must re-pad each sparse file's
// tile-directory capacity to min(|S_j|, Tiles) — so post-arrival churn
// splices have the headroom the capacity panic assumes.
func TestHeteroArriveNodeRepadsDirectory(t *testing.T) {
	const side, m, k, maxCap = 8, 3, 60, 6
	n := side * side
	g := grid.New(side, grid.Torus)
	tl := g.NewTiling(2)
	pop := dist.NewUniform(k)
	r := rand.New(rand.NewPCG(4, 44))
	pl := NewPlacer(n, m, k)
	pl.EnableHetero(maxCap)
	pl.EnableTiles(tl)
	pl.EnableChurn()
	caps := heteroCaps(n, maxCap)
	vacant := make([]bool, n)
	u := int32(17)
	caps[u] = maxCap // the arrival draws a full-width slab
	vacant[u] = true
	pl.SetHetero(caps, vacant)
	p := pl.Place(pop, WithReplacement, r)

	pl.StageArrival(u, pop, WithReplacement, r)
	pl.SpliceArrivals()
	if p.T(int(u)) == 0 {
		t.Fatal("arrival left the node empty")
	}
	ix := p.TileIndex()
	grown := 0
	for j := 0; j < k; j++ {
		want := int32(0)
		if ix.FileBits(j) == nil {
			want = min(int32(len(p.Replicas(j))), int32(tl.Tiles()))
		}
		if got := ix.dirOff[j+1] - ix.dirOff[j]; got != want {
			t.Fatalf("file %d: directory capacity %d after arrival, want %d", j, got, want)
		}
	}
	for _, f := range p.NodeFiles(int(u)) {
		if ix.FileBits(int(f)) == nil {
			grown++
		}
	}
	if grown == 0 {
		t.Fatal("arrival grew no sparse file; re-pad not exercised")
	}
	checkAgainstRebuild(t, p, tl)

	// Post-arrival splices must still be legal against the re-padded
	// directory.
	moved := 0
	for e := 0; e < 200; e++ {
		j, i := p.SlotReplica(r.IntN(p.ReplicaSlots()))
		v := int32(r.IntN(n))
		if at, has := slices.BinarySearch(p.NodeFiles(int(v)), int32(j)); !vacant[v] && !has && p.T(int(v)) < p.Cap(int(v)) {
			p.ReplaceReplica(j, i, v, at)
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no post-arrival migration applied; splice headroom not exercised")
	}
	checkAgainstRebuild(t, p, tl)
}

// TestArriveNodeMatchesRebuild runs a splicing Placer in lockstep with a
// twin that rebuilds its replica CSR and tile index from scratch after
// every batch of arrivals. Both draw their placements and joins from
// identically seeded RNGs and take the same churn batches between
// batches of k ∈ {1, 2, 10, all vacant} joins; after every batch the two
// must agree on every structure — node lists, the key-ordered replica
// CSR (dense files' segments included), cached set, dense bitmaps,
// directories and their padded capacities. Only the numbering of bitmap
// blocks may differ. Batches of size 1 are sequential joins, so a batch
// equals both the joins one at a time and a rebuild. The test fails
// unless some batch hit each of the batched plan's merge cases: two
// joiners of one file, two joiners of one file in one tile (sharing a
// run), joiners pushing a sparse file past the dense threshold together,
// and a batch larger than the plan arena (spliced in sub-batches).
func TestArriveNodeMatchesRebuild(t *testing.T) {
	const m, maxCap = 3, 6
	var sharedFile, sharedTile, densePush, overflow, promoted, fresh int
	for _, side := range []int{8, 12, 16} {
		n := side * side
		g := grid.New(side, grid.Torus)
		caps := heteroCaps(n, maxCap)
		for _, k := range []int{20, 60, 400} {
			pop := dist.NewZipf(k, 1.0)
			for _, mode := range []Mode{WithReplacement, WithoutReplacement} {
				for _, tiles := range []bool{false, true} {
					for _, batch := range []int{1, 2, 10, n} {
						var tl *grid.Tiling
						if tiles {
							tl = g.NewTiling(side / 4)
						}
						newPlacer := func() *Placer {
							pl := NewPlacer(n, m, k)
							pl.EnableHetero(maxCap)
							if tiles {
								pl.EnableTiles(tl)
							}
							pl.EnableChurn()
							return pl
						}
						splice, twin := newPlacer(), newPlacer()
						vacant := make([]bool, n)
						var queue []int32
						for u := 1; u < n; u += 3 {
							vacant[u] = true
							queue = append(queue, int32(u))
						}
						splice.SetHetero(caps, vacant)
						twin.SetHetero(caps, vacant)
						seed := uint64(side*1000 + k)
						rs, rt := rand.New(rand.NewPCG(seed, 1)), rand.New(rand.NewPCG(seed, 1))
						events := rand.New(rand.NewPCG(seed, 2))
						p, q := splice.Place(pop, mode, rs), twin.Place(pop, mode, rt)
						for len(queue) > 0 {
							lockstepChurn(p, q, vacant, events, 20)
							dense, uncached := denseFiles(p), p.UncachedCount()
							wasDense := make([]bool, k)
							for j := range wasDense {
								wasDense[j] = p.TileIndex() != nil && p.TileIndex().FileBits(j) != nil
							}
							var joiners []int32
							for len(joiners) < batch && len(queue) > 0 {
								i := events.IntN(len(queue))
								u := queue[i]
								queue[i] = queue[len(queue)-1]
								queue = queue[:len(queue)-1]
								splice.StageArrival(u, pop, mode, rs)
								twin.StageArrival(u, pop, mode, rt)
								joiners = append(joiners, u)
							}
							inserts := 0
							for _, u := range joiners {
								inserts += p.T(int(u))
							}
							if inserts > cap(splice.joins) {
								overflow++
							}
							splice.SpliceArrivals()
							twin.rebuildArrivals()
							sameStructures(t, p, q)
							checkAgainstRebuild(t, p, tl)
							promoted += denseFiles(p) - dense
							fresh += uncached - p.UncachedCount()
							f, ft, dp := batchMerges(p, tl, joiners, wasDense)
							sharedFile += f
							sharedTile += ft
							densePush += dp
						}
					}
				}
			}
		}
	}
	if promoted == 0 || fresh == 0 {
		t.Fatalf("joins promoted %d files to bitmaps and newly cached %d; test is vacuous", promoted, fresh)
	}
	if sharedFile == 0 || sharedTile == 0 || densePush == 0 || overflow == 0 {
		t.Fatalf("batches with joiners sharing a file %d, a file's tile %d, pushing a file dense together %d, outgrowing the plan %d; every count must be non-zero",
			sharedFile, sharedTile, densePush, overflow)
	}
}

// rebuildArrivals is the rebuilding twin's splice: it drops the staged
// plan, recounts the replicas of the forward map and rebuilds the
// replica CSR and tile index from them.
func (pl *Placer) rebuildArrivals() {
	pl.joins = pl.joins[:0]
	pl.p.staged = false
	clear(pl.counts)
	for u := 0; u < pl.n; u++ {
		for _, f := range pl.p.NodeFiles(u) {
			pl.counts[f]++
		}
	}
	pl.buildIndex()
}

// batchMerges reports whether the batch of joiners just spliced into p
// had two joiners of one file, two joiners of one file in one tile of
// tl (nil: untiled), and a file that was sparse before the batch
// (wasDense[j] false) and dense after, reached by at least two joiners.
// Each result is 0 or 1.
func batchMerges(p *Placement, tl *grid.Tiling, joiners []int32, wasDense []bool) (file, tile, dense int) {
	byFile := map[int32][]int32{}
	for _, u := range joiners {
		for _, f := range p.NodeFiles(int(u)) {
			byFile[f] = append(byFile[f], u)
		}
	}
	for f, us := range byFile {
		if len(us) < 2 {
			continue
		}
		file = 1
		if ix := p.TileIndex(); ix != nil && !wasDense[f] && ix.FileBits(int(f)) != nil {
			dense = 1
		}
		if tl == nil {
			continue
		}
		seen := map[int32]bool{}
		for _, u := range us {
			if seen[tl.TileOf(u)] {
				tile = 1
			}
			seen[tl.TileOf(u)] = true
		}
	}
	return file, tile, dense
}

// lockstepChurn draws up to n churn events from p's state — a migration
// to a free slot, or a swap when the destination is full — and applies
// each to both p and its twin q. Vacant destinations are skipped, as
// the engine does.
func lockstepChurn(p, q *Placement, vacant []bool, r *rand.Rand, n int) {
	for range n {
		if e, ok := drawChurn(p, r, vacant); ok {
			e.apply(p)
			e.apply(q)
		}
	}
}

// denseFiles counts the files p's tile index keeps as bitmaps.
func denseFiles(p *Placement) int {
	ix, c := p.TileIndex(), 0
	for j := 0; ix != nil && j < p.K(); j++ {
		if ix.FileBits(j) != nil {
			c++
		}
	}
	return c
}

// sameStructures fails unless p and its reference q agree on the
// forward map, replica CSR, cached set, arena totals and, when indexed,
// the tile index including every file's padded directory span. Node
// lists compare exactly, or as sorted copies of q's when q keeps draw
// order (a build without EnableChurn).
func sameStructures(t *testing.T, p, q *Placement) {
	t.Helper()
	for u := 0; u < p.N(); u++ {
		want := q.NodeFiles(u)
		if !q.Mutable() {
			want = slices.Sorted(slices.Values(want))
		}
		if !slices.Equal(p.NodeFiles(u), want) {
			t.Fatalf("node %d: files %v, reference %v", u, p.NodeFiles(u), want)
		}
	}
	if !slices.Equal(p.repOff, q.repOff) || !slices.Equal(p.nodes, q.nodes) {
		t.Fatal("replica CSR differs from the reference")
	}
	if !slices.Equal(p.CachedFiles(), q.CachedFiles()) ||
		p.UncachedCount() != q.UncachedCount() || p.ReplicaSlots() != q.ReplicaSlots() {
		t.Fatalf("cached set %v (uncached %d, slots %d), reference %v (%d, %d)",
			p.CachedFiles(), p.UncachedCount(), p.ReplicaSlots(),
			q.CachedFiles(), q.UncachedCount(), q.ReplicaSlots())
	}
	if (p.TileIndex() == nil) != (q.TileIndex() == nil) {
		t.Fatal("tile index attached on one side only")
	}
	if p.TileIndex() == nil {
		return
	}
	sameTileIndex(t, p, q)
	if !slices.Equal(p.tix.dirOff, q.tix.dirOff) {
		t.Fatalf("directory spans %v, reference %v", p.tix.dirOff, q.tix.dirOff)
	}
}

// TestHeteroTileDirectoryOverflowPanics pins the loud half of the
// directory-capacity contract: a splice that needs a directory entry
// beyond the file's padded capacity — the state a grown |S_j| would
// reach if a join failed to re-pad it — must panic rather than corrupt
// a neighbouring file's directory. The test forges the stale-capacity
// state by clamping one file's capacity to its current length.
func TestHeteroTileDirectoryOverflowPanics(t *testing.T) {
	const side, m, k = 8, 3, 60
	n := side * side
	g := grid.New(side, grid.Torus)
	tl := g.NewTiling(2)
	pop := dist.NewUniform(k)
	r := rand.New(rand.NewPCG(12, 13))
	pl := NewPlacer(n, m, k)
	pl.EnableTiles(tl)
	pl.EnableChurn()
	p := pl.Place(pop, WithReplacement, r)
	ix := p.TileIndex()

	// Find a migration that must insert a NEW directory entry without
	// freeing one: u's tile run holds ≥ 2 replicas (no removal) and v's
	// tile is absent from the directory (insertion).
	for j := 0; j < k; j++ {
		if ix.FileBits(j) != nil || len(p.Replicas(j)) < 2 {
			continue
		}
		tiles, starts := ix.FileRuns(j)
		for d, tu := range tiles {
			end := int32(len(p.Replicas(j)))
			if d+1 < len(starts) {
				end = starts[d+1]
			}
			if end-starts[d] < 2 {
				continue // removal would drop the entry and free a slot
			}
			for v := int32(0); v < int32(n); v++ {
				tv := tl.TileOf(v)
				at, has := slices.BinarySearch(p.NodeFiles(int(v)), int32(j))
				if tv == tu || has || p.T(int(v)) >= p.Cap(int(v)) {
					continue
				}
				if _, present := slices.BinarySearch(tiles, tv); present {
					continue
				}
				// Forge the stale capacity: pretend the build padded file
				// j only to its current directory length.
				ix.dirOff[j+1] = ix.dirOff[j] + ix.dirLen[j]
				mustPanic(t, "directory overflow", func() { p.ReplaceReplica(j, int(starts[d]), v, at) })
				return
			}
		}
	}
	t.Fatal("no overflow-inducing migration found; placement shape too degenerate")
}

// TestHeteroArriveNodePanics pins the precondition contract of the
// arrival halves: staging needs a hetero- and churn-enabled Placer and a
// vacant node, and while nodes are staged, Place, ReplaceReplica and
// SwapReplicas panic rather than read replica lists that miss them.
func TestHeteroArriveNodePanics(t *testing.T) {
	pop := dist.NewUniform(10)
	r := rand.New(rand.NewPCG(1, 2))

	plain := NewPlacer(9, 2, 10)
	plain.EnableChurn()
	plain.Place(pop, WithReplacement, r)
	mustPanic(t, "no EnableHetero", func() { plain.StageArrival(0, pop, WithReplacement, r) })

	frozen := NewPlacer(9, 2, 10)
	frozen.EnableHetero(2)
	frozen.SetHetero([]int32{2, 2, 2, 2, 2, 2, 2, 2, 2}, nil)
	frozen.Place(pop, WithReplacement, r)
	mustPanic(t, "no EnableChurn", func() { frozen.StageArrival(0, pop, WithReplacement, r) })

	het := NewPlacer(9, 2, 10)
	het.EnableHetero(2)
	het.EnableChurn()
	het.SetHetero([]int32{2, 2, 2, 2, 2, 2, 2, 2, 2}, make([]bool, 9))
	p := het.Place(pop, WithReplacement, r)
	var occupied int32 = -1
	for u := 0; u < 9; u++ {
		if p.T(u) > 0 {
			occupied = int32(u)
			break
		}
	}
	if occupied < 0 {
		t.Fatal("placement left every node empty")
	}
	mustPanic(t, "non-vacant node", func() { het.StageArrival(occupied, pop, WithReplacement, r) })

	// Stage one of two vacant nodes, then try each mutation a barrier
	// could run before the splice. Each is legal but for the staged node:
	// the swap is between two placed nodes, and the migration goes to
	// the other vacant node, which is empty.
	caps := []int32{2, 2, 2, 2, 2, 2, 2, 2, 2}
	vacant := make([]bool, 9)
	vacant[4], vacant[7] = true, true
	het.SetHetero(caps, vacant)
	p = het.Place(pop, WithReplacement, r)
	het.StageArrival(4, pop, WithReplacement, r)
	mustPanic(t, "Place while staged", func() { het.Place(pop, WithReplacement, r) })
	// A swap of file j at u with v's k-th file j2, both nodes placed.
	var j, j2, k, at, at2 int
	var u, v int32 = -1, -1
	for _, f := range p.CachedFiles() {
		for _, a := range p.Replicas(int(f)) {
			for b := int32(0); b < 9 && u < 0; b++ {
				bFiles := p.NodeFiles(int(b))
				x, has := slices.BinarySearch(bFiles, f)
				if b == 4 || has {
					continue
				}
				for y, g := range bFiles {
					if z, has := slices.BinarySearch(p.NodeFiles(int(a)), g); !has && u < 0 {
						j, u, v, at, k, j2, at2 = int(f), a, b, x, y, int(g), z
					}
				}
			}
		}
	}
	if u < 0 {
		t.Fatal("no legal swap in the staged placement")
	}
	slot := func(f int, w int32) int { return slices.Index(p.Replicas(f), w) }
	mustPanic(t, "SwapReplicas while staged", func() { p.SwapReplicas(j, slot(j, u), v, at, k, at2) })
	mustPanic(t, "ReplaceReplica while staged", func() { p.ReplaceReplica(j, slot(j, u), 7, 0) })
	het.SpliceArrivals()
	// Both legal again once spliced. The splice may shift u's slot in S_j
	// (node 4 can join it), but no node list changes.
	p.SwapReplicas(j, slot(j, u), v, at, k, at2)
	p.ReplaceReplica(j2, slot(j2, u), 7, 0)
	checkAgainstRebuild(t, p, nil)
}

// BenchmarkArriveNode measures node joins — the arrival layer of the
// chunk-barrier mutations — at the shape of the engine's paper-scale
// dynamic regime: 70×70 torus, K = 10⁴ Zipf(1.2), M = 10, tiles of 7,
// power-law capacities up to 8M (Pareto α = 3/2 from M/3, as
// internal/sim's ProfilePowerLaw draws them) and a quarter of the nodes
// vacant. Each iteration stages k vacant nodes and splices them as one
// batch; k = 10 is the batch a dynamic chunk barrier lands. ns/node is
// the cost per joining node. Once fewer than k vacant nodes are left
// the placement is drawn afresh with the timer stopped.
func BenchmarkArriveNode(b *testing.B) {
	for _, k := range []int{1, 10} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			const side, m, files = 70, 10, 10000
			n := side * side
			g := grid.New(side, grid.Torus)
			pop := dist.NewZipf(files, 1.2)
			r := rand.New(rand.NewPCG(17, 19))
			caps := powerLawCaps(n, m, r)
			pl := NewPlacer(n, m, files)
			pl.EnableHetero(8 * m)
			pl.EnableTiles(g.NewTiling(7))
			pl.EnableChurn()
			vacant := make([]bool, n)
			var queue []int32
			place := func() {
				queue = queue[:0]
				for u := range vacant {
					vacant[u] = r.IntN(4) == 0
					if vacant[u] {
						queue = append(queue, int32(u))
					}
				}
				pl.SetHetero(caps, vacant)
				pl.Place(pop, WithReplacement, r)
			}
			place()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(queue) < k {
					b.StopTimer()
					place()
					b.StartTimer()
				}
				for _, u := range queue[len(queue)-k:] {
					pl.StageArrival(u, pop, WithReplacement, r)
				}
				queue = queue[:len(queue)-k]
				pl.SpliceArrivals()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/node")
		})
	}
}

// fuzzWorld is a small world decoded from fuzz bytes: side 3–12, torus
// or bounded, an optional tile index whose tile size need not divide the
// side, K, M, maxCap, placement mode, popularity, per-node capacities in
// [1, maxCap], a vacancy mask and a placement seed.
type fuzzWorld struct {
	n, k, m, maxCap int
	tl              *grid.Tiling // nil: no tile index
	mode            Mode
	pop             dist.Popularity
	caps            []int32
	vacant          []bool
	queue           []int32 // the vacant nodes, ascending
	seed            uint64
	uniform         bool       // byte 4's high bit: a build may skip EnableHetero
	r               *rand.Rand // the decoder's stream, past the capacities
}

// decodeFuzzWorld decodes data into a fuzzWorld; missing bytes read as 0.
func decodeFuzzWorld(data []byte) fuzzWorld {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	side := 3 + int(at(0))%10
	w := fuzzWorld{n: side * side, k: 1 + int(at(2)), m: 1 + int(at(3)&3)}
	topo := grid.Torus
	if at(1)&1 != 0 {
		topo = grid.Bounded
	}
	if ts := int(at(1)>>1) % (side + 1); ts > 0 {
		w.tl = grid.New(side, topo).NewTiling(ts)
	}
	w.maxCap = w.m + int(at(3)>>2&7)
	w.mode = Mode(at(4) & 1)
	w.pop = dist.NewUniform(w.k)
	if at(4)&2 != 0 {
		w.pop = dist.NewZipf(w.k, 0.5+float64(at(4)>>2&7)/4)
	}
	w.uniform = at(4)&0x80 != 0
	w.r = rand.New(rand.NewPCG(uint64(at(5)), uint64(at(6))))
	w.caps = make([]int32, w.n)
	w.vacant = make([]bool, w.n)
	for u := range w.caps {
		w.caps[u] = int32(1 + w.r.IntN(w.maxCap))
		if at(7+u/8)>>(u%8)&1 != 0 {
			w.vacant[u] = true
			w.queue = append(w.queue, int32(u))
		}
	}
	w.seed = uint64(at(5))<<8 | uint64(at(6))
	return w
}

// FuzzArriveNodes decodes its input into a small world (see fuzzWorld)
// and a partition of the vacant nodes into batches with churn between
// them. After every batch the spliced placement must equal a rebuilding
// twin and a from-scratch rebuild.
func FuzzArriveNodes(f *testing.F) {
	f.Add([]byte{5, 3, 40, 0x12, 1, 7, 0x33, 0x55, 0xAA})
	f.Add([]byte{9, 8, 12, 0x31, 2, 1, 0xFF, 0xFF, 0x0F, 0xF0})
	f.Add([]byte{2, 0, 200, 0x03, 3, 9, 0x01, 0x80})
	f.Add([]byte{0, 1, 1, 0x20, 0, 0, 0xFF})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF}) // every node vacant
	f.Fuzz(func(t *testing.T, data []byte) {
		w := decodeFuzzWorld(data)
		pop, mode, tl, r, queue := w.pop, w.mode, w.tl, w.r, w.queue
		newPlacer := func() *Placer {
			pl := NewPlacer(w.n, w.m, w.k)
			pl.EnableHetero(w.maxCap)
			if tl != nil {
				pl.EnableTiles(tl)
			}
			pl.EnableChurn()
			pl.SetHetero(w.caps, w.vacant)
			return pl
		}
		splice, twin := newPlacer(), newPlacer()
		rs, rt := rand.New(rand.NewPCG(w.seed, 3)), rand.New(rand.NewPCG(w.seed, 3))
		p, q := splice.Place(pop, mode, rs), twin.Place(pop, mode, rt)
		vacant := w.vacant
		for len(queue) > 0 {
			if p.ReplicaSlots() > 0 {
				lockstepChurn(p, q, vacant, r, r.IntN(8))
			}
			for batch := 1 + r.IntN(len(queue)); batch > 0; batch-- {
				i := r.IntN(len(queue))
				u := queue[i]
				queue[i] = queue[len(queue)-1]
				queue = queue[:len(queue)-1]
				splice.StageArrival(u, pop, mode, rs)
				twin.StageArrival(u, pop, mode, rt)
			}
			splice.SpliceArrivals()
			twin.rebuildArrivals()
			sameStructures(t, p, q)
			checkAgainstRebuild(t, p, tl)
		}
	})
}

// FuzzSortedBuild decodes its input into a small world (see fuzzWorld;
// byte 4's high bit drops EnableHetero for the uniform-stride layout)
// and builds it twice per Placer from one seed: in draw order, and
// churn-enabled, whose sorted node lists come from transposing the
// replica CSR. After each build the churn-enabled placement must equal
// its draw-order twin with every node list sorted, and the same replica
// CSR, cached set and tile index, and pass a from-scratch rebuild.
// FuzzArriveNodes cannot catch a transpose bug: both of its sides build
// through the transpose.
func FuzzSortedBuild(f *testing.F) {
	f.Add([]byte{5, 3, 40, 0x12, 1, 7, 0x33, 0x55, 0xAA})
	f.Add([]byte{9, 8, 12, 0x31, 2, 1, 0xFF, 0xFF, 0x0F, 0xF0})
	f.Add([]byte{2, 7, 200, 0x03, 0x83, 9, 0x01, 0x80})
	f.Add([]byte{4, 6, 30, 0x1F, 0x0E, 5, 0x42, 0x11, 0x22, 0x44}) // tiles of 3 on a 7×7 torus
	f.Add([]byte{0, 1, 1, 0x20, 0x80, 0, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := decodeFuzzWorld(data)
		newPlacer := func(sorted bool) *Placer {
			pl := NewPlacer(w.n, w.m, w.k)
			if !w.uniform {
				pl.EnableHetero(w.maxCap)
			}
			if w.tl != nil {
				pl.EnableTiles(w.tl)
			}
			if sorted {
				pl.EnableChurn()
			}
			return pl
		}
		plain, sorted := newPlacer(false), newPlacer(true)
		rp, rs := rand.New(rand.NewPCG(w.seed, 3)), rand.New(rand.NewPCG(w.seed, 3))
		for range 2 {
			if !w.uniform {
				plain.SetHetero(w.caps, w.vacant)
				sorted.SetHetero(w.caps, w.vacant)
			}
			ref, got := plain.Place(w.pop, w.mode, rp), sorted.Place(w.pop, w.mode, rs)
			if ref.Mutable() || !got.Mutable() {
				t.Fatalf("Mutable: draw-order build %v, churn-enabled build %v", ref.Mutable(), got.Mutable())
			}
			sameStructures(t, got, ref)
			checkAgainstRebuild(t, got, w.tl)
		}
	})
}
