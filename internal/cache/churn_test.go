package cache

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/grid"
)

// TestMutableBuildMatchesImmutable: a churn-enabled build, whose sorted
// node lists come from transposing the replica CSR, must produce the same
// placement content as a build without EnableChurn from the same RNG
// history — each node list the sorted draw-order list, and identical
// replica CSR, cached set and tile index — for both placement modes,
// untiled, with tiles that divide the side and with tiles that do not,
// over uniform capacities and over power-law capacities with about a
// quarter of the nodes vacant. Sorting is the only difference.
func TestMutableBuildMatchesImmutable(t *testing.T) {
	const side, m, k = 8, 3, 60
	n := side * side
	g := grid.New(side, grid.Torus)
	pop := dist.NewZipf(k, 1.0)
	r := rand.New(rand.NewPCG(3, 4))
	caps := powerLawCaps(n, m, r)
	vacant := make([]bool, n)
	for u := range vacant {
		vacant[u] = r.IntN(4) == 0
	}
	for _, mode := range []Mode{WithReplacement, WithoutReplacement} {
		for _, tile := range []int{0, 2, 3} { // 0: no tile index; 3 does not divide 8
			for _, hetero := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/tiles%d/hetero=%v", mode, tile, hetero), func(t *testing.T) {
					newPlacer := func() *Placer {
						pl := NewPlacer(n, m, k)
						if hetero {
							pl.EnableHetero(8 * m)
						}
						if tile > 0 {
							pl.EnableTiles(g.NewTiling(tile))
						}
						if hetero {
							pl.SetHetero(caps, vacant)
						}
						return pl
					}
					plain, mut := newPlacer(), newPlacer()
					mut.EnableChurn()
					ref := plain.Place(pop, mode, rand.New(rand.NewPCG(7, 9)))
					got := mut.Place(pop, mode, rand.New(rand.NewPCG(7, 9)))
					if ref.Mutable() || !got.Mutable() {
						t.Fatalf("Mutable: plain %v, EnableChurn %v", ref.Mutable(), got.Mutable())
					}
					sameStructures(t, got, ref)
				})
			}
		}
	}
}

// powerLawCaps draws n capacities as internal/sim's ProfilePowerLaw does:
// Pareto α = 3/2 from M/3, clamped to [1, 8M].
func powerLawCaps(n, m int, r *rand.Rand) []int32 {
	caps := make([]int32, n)
	for u := range caps {
		mu := int(math.Round(float64(m) / 3 * math.Pow(1-r.Float64(), -1/1.5)))
		caps[u] = int32(min(max(mu, 1), 8*m))
	}
	return caps
}

// sameTileIndex fails unless a and b carry identical tile indexes: the
// same dense bitmaps and directories.
func sameTileIndex(t *testing.T, a, b *Placement) {
	t.Helper()
	ia, ib := a.TileIndex(), b.TileIndex()
	if ia == nil || ib == nil {
		t.Fatalf("tile index missing: %v, %v", ia != nil, ib != nil)
	}
	for j := 0; j < a.K(); j++ {
		if !slices.Equal(ia.FileBits(j), ib.FileBits(j)) {
			t.Fatalf("file %d: dense bitmaps differ", j)
		}
		ta, sa := ia.FileRuns(j)
		tb, sb := ib.FileRuns(j)
		if !slices.Equal(ta, tb) || !slices.Equal(sa, sb) {
			t.Fatalf("file %d: directories (%v,%v) vs (%v,%v)", j, ta, sa, tb, sb)
		}
	}
}

// checkAgainstRebuild verifies every incremental structure of p against
// a from-scratch rebuild from p's forward map: every S_j — dense files'
// included — in key order (tile by tile through tl's node order, node
// order when tl is nil), the cached-file list and the arena totals, and
// — when a tile index is attached — which files are dense, their
// bitmaps, the tile directory and its padded capacity, using exactly the
// construction rule of buildIndex. Node lists must be sorted on mutable
// placements.
func checkAgainstRebuild(t *testing.T, p *Placement, tl *grid.Tiling) {
	t.Helper()
	n, k := p.N(), p.K()
	for u := 0; u < n; u++ {
		files := p.NodeFiles(u)
		if p.Mutable() && !slices.IsSorted(files) {
			t.Fatalf("node %d file list not sorted: %v", u, files)
		}
		if len(files) != p.T(u) {
			t.Fatalf("node %d: len(files)=%d, T=%d", u, len(files), p.T(u))
		}
		for i, f := range files {
			if slices.Contains(files[:i], f) {
				t.Fatalf("node %d caches file %d twice", u, f)
			}
		}
	}
	order := make([]int32, n)
	if tl != nil {
		order = tl.Order()
	} else {
		for u := range order {
			order[u] = int32(u)
		}
	}
	segs := make([][]int32, k)
	for _, u := range order {
		for _, f := range p.NodeFiles(int(u)) {
			segs[f] = append(segs[f], u)
		}
	}
	var cached []int32
	slots := 0
	for j := 0; j < k; j++ {
		if !slices.Equal(p.Replicas(j), segs[j]) {
			t.Fatalf("file %d: replica segment %v, rebuild %v", j, p.Replicas(j), segs[j])
		}
		if len(segs[j]) > 0 {
			cached = append(cached, int32(j))
		}
		slots += len(segs[j])
	}
	if !slices.Equal(p.CachedFiles(), cached) {
		t.Fatalf("cached files %v, rebuild %v", p.CachedFiles(), cached)
	}
	if p.UncachedCount() != k-len(cached) || p.ReplicaSlots() != slots {
		t.Fatalf("UncachedCount=%d ReplicaSlots=%d, rebuild %d and %d",
			p.UncachedCount(), p.ReplicaSlots(), k-len(cached), slots)
	}
	ix := p.TileIndex()
	if ix == nil {
		return
	}
	thresh := int(denseBitThreshold(n))
	for j := 0; j < k; j++ {
		dense := len(segs[j]) >= thresh
		bits := ix.FileBits(j)
		if (bits != nil) != dense {
			t.Fatalf("file %d: |S_j|=%d, bitmap %v, want dense=%v (threshold %d)",
				j, len(segs[j]), bits != nil, dense, thresh)
		}
		want := int32(0)
		if !dense {
			want = int32(min(len(segs[j]), tl.Tiles()))
		}
		if got := ix.dirOff[j+1] - ix.dirOff[j]; got != want {
			t.Fatalf("file %d: directory capacity %d, rebuild pads %d", j, got, want)
		}
		var wantTiles, wantStarts []int32
		if dense {
			for u := int32(0); u < int32(n); u++ {
				if got, want := bits[u>>6]&(1<<(uint(u)&63)) != 0, slices.Contains(segs[j], u); got != want {
					t.Fatalf("dense file %d: bit for node %d = %v, rebuild %v", j, u, got, want)
				}
			}
		} else {
			last := int32(-1)
			for i, u := range segs[j] {
				if tid := tl.TileOf(u); tid != last {
					wantTiles = append(wantTiles, tid)
					wantStarts = append(wantStarts, int32(i))
					last = tid
				}
			}
		}
		tiles, starts := ix.FileRuns(j)
		if !slices.Equal(tiles, wantTiles) || !slices.Equal(starts, wantStarts) {
			t.Fatalf("file %d: directory (%v,%v), rebuild (%v,%v)",
				j, tiles, starts, wantTiles, wantStarts)
		}
	}
}

// churnEvent is one churn event addressed as the slot-addressed
// primitives take it: the replica at slot i of S_j moves to node v, with
// j's insertion point at in v's list; a swap also moves v's k-th file
// back to u, at its insertion point at2 in u's list.
type churnEvent struct {
	j, i, at, k, at2 int
	v                int32
	swap             bool
}

// drawChurn draws one churn event on p from r in the engine's order: a
// uniform replica, a uniform destination and, when the destination is
// full, a uniform resident of it to swap back. ok is false for the
// events the engine skips: the destination caches the file (or is the
// source), is vacant (vacant may be nil), or the source already caches
// the displaced file.
func drawChurn(p *Placement, r *rand.Rand, vacant []bool) (e churnEvent, ok bool) {
	e.j, e.i = p.SlotReplica(r.IntN(p.ReplicaSlots()))
	e.v = int32(r.IntN(p.N()))
	vFiles := p.NodeFiles(int(e.v))
	var has bool
	e.at, has = slices.BinarySearch(vFiles, int32(e.j))
	if has || vacant != nil && vacant[e.v] {
		return e, false
	}
	if len(vFiles) < p.Cap(int(e.v)) {
		return e, true
	}
	e.swap = true
	e.k = r.IntN(len(vFiles))
	u := p.Replicas(e.j)[e.i]
	e.at2, has = slices.BinarySearch(p.NodeFiles(int(u)), vFiles[e.k])
	return e, !has
}

// apply applies e to p.
func (e churnEvent) apply(p *Placement) {
	if e.swap {
		p.SwapReplicas(e.j, e.i, e.v, e.at, e.k, e.at2)
	} else {
		p.ReplaceReplica(e.j, e.i, e.v, e.at)
	}
}

// storm applies up to n random churn events to p (vacant destinations
// skipped when vacant is non-nil), noting each splice in c when c is
// non-nil.
func storm(p *Placement, r *rand.Rand, vacant []bool, n int, c *branchCounts) (moved, swapped int) {
	for range n {
		e, ok := drawChurn(p, r, vacant)
		if !ok {
			continue
		}
		if c != nil {
			c.note(p, e)
		}
		e.apply(p)
		if e.swap {
			swapped++
		} else {
			moved++
		}
	}
	return moved, swapped
}

// The branches of one S_j splice, named for the storms that must drive
// every one of them.
const (
	branchUntiled  = iota // untiled placement: S_j searched by node id
	branchDense           // dense file: two bitmap bits flip
	branchSameTile        // u and v in one tile: the run rotates in place
	branchRuns            // both tiles hold runs, and u's survives
	branchEmptied         // u's run empties into v's existing run
	branchNewTile         // v's tile is new, and u's run survives
	branchMoved           // both at once: u's run empties as v's opens
	numBranches
)

var branchNames = [numBranches]string{
	"untiled placement", "dense file", "u and v in one tile", "both runs survive",
	"u's run emptied", "v's tile new", "u's run emptied and v's tile new",
}

// branchCounts counts the splice branches a storm drove.
type branchCounts [numBranches]int

// note counts the splices e will make on p, classified from p's
// directory before e is applied.
func (c *branchCounts) note(p *Placement, e churnEvent) {
	u := p.Replicas(e.j)[e.i]
	c[spliceBranch(p, e.j, u, e.v)]++
	if e.swap {
		c[spliceBranch(p, int(p.NodeFiles(int(e.v))[e.k]), e.v, u)]++
	}
}

// spliceBranch classifies moving file j's replica from u to v.
func spliceBranch(p *Placement, j int, u, v int32) int {
	ix := p.TileIndex()
	switch {
	case ix == nil:
		return branchUntiled
	case ix.FileBits(j) != nil:
		return branchDense
	}
	tu, tv := ix.Tiling().TileOf(u), ix.Tiling().TileOf(v)
	if tu == tv {
		return branchSameTile
	}
	tiles, starts := ix.FileRuns(j)
	du, _ := slices.BinarySearch(tiles, tu)
	end := int32(p.ReplicaCount(j))
	if du+1 < len(starts) {
		end = starts[du+1]
	}
	_, has := slices.BinarySearch(tiles, tv)
	switch emptied := end-starts[du] == 1; {
	case emptied && has:
		return branchEmptied
	case emptied:
		return branchMoved
	case has:
		return branchRuns
	}
	return branchNewTile
}

// check fails t for every branch no splice took.
func (c *branchCounts) check(t *testing.T) {
	t.Helper()
	for b, n := range c {
		t.Logf("%-33s %5d splices", branchNames[b], n)
		if n == 0 {
			t.Errorf("no splice took the %q branch; the storm is too tame", branchNames[b])
		}
	}
}

// TestReplaceReplicaStorm interleaves batches of random churn events
// with full set-equality checks against a from-scratch rebuild, across
// index modes, placement modes and popularity profiles — the property
// contract of the churn subsystem. It fails unless the storms drove
// every branch of the S_j splice.
func TestReplaceReplicaStorm(t *testing.T) {
	const side, m = 8, 3
	n := side * side
	g := grid.New(side, grid.Torus)
	var branches branchCounts
	for _, tc := range []struct {
		name  string
		k     int
		pop   dist.Popularity
		tiles bool
		mode  Mode
	}{
		{name: "uniform/plain", k: 60, pop: dist.NewUniform(60)},
		{name: "uniform/tiles", k: 60, pop: dist.NewUniform(60), tiles: true},
		{name: "zipf/tiles", k: 40, pop: dist.NewZipf(40, 1.2), tiles: true},
		{name: "zipf-dense/tiles", k: 8, pop: dist.NewZipf(8, 1.2), tiles: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(0xC0FFEE, 42))
			pl := NewPlacer(n, m, tc.k)
			var tl *grid.Tiling
			if tc.tiles {
				tl = g.NewTiling(2)
				pl.EnableTiles(tl)
			}
			pl.EnableChurn()
			p := pl.Place(tc.pop, tc.mode, r)
			checkAgainstRebuild(t, p, tl)
			moved, swapped := 0, 0
			for batch := 0; batch < 30; batch++ {
				mv, sw := storm(p, r, nil, 25, &branches)
				moved, swapped = moved+mv, swapped+sw
				checkAgainstRebuild(t, p, tl)
			}
			if moved == 0 || swapped == 0 {
				t.Fatalf("storm too tame (moved=%d swapped=%d); test is vacuous", moved, swapped)
			}
			// A re-Place on the same Placer must fully reset the arenas.
			p = pl.Place(tc.pop, tc.mode, r)
			checkAgainstRebuild(t, p, tl)
		})
	}
	branches.check(t)
}

// TestWithoutReplacementChurnDegenerate pins the documented degeneracy:
// without-replacement placements fill every node with exactly M distinct
// files, so no node ever has a free slot and no plain migration
// (ReplaceReplica) is legal — churn over such a placement proceeds
// exclusively through SwapReplicas exchanges.
func TestWithoutReplacementChurnDegenerate(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	pl := NewPlacer(16, 3, 40)
	pl.EnableChurn()
	p := pl.Place(dist.NewZipf(40, 1.2), WithoutReplacement, r)
	for v := 0; v < p.N(); v++ {
		if p.T(v) != p.Cap(v) {
			t.Fatalf("node %d caches %d of %d files: a free slot on a full placement", v, p.T(v), p.Cap(v))
		}
	}
	for slot := 0; slot < p.ReplicaSlots(); slot++ {
		j, i := p.SlotReplica(slot)
		for v := int32(0); v < int32(p.N()); v++ {
			if at, has := slices.BinarySearch(p.NodeFiles(int(v)), int32(j)); !has {
				mustPanic(t, "migration onto a full node", func() { p.ReplaceReplica(j, i, v, at) })
				return
			}
		}
	}
	t.Fatal("every node caches every file")
}

// TestSlotReplica checks the flat-slot inverse mapping against the CSR
// on untiled and tiled churn-enabled placements, on a clone, and after
// node arrivals have moved the CSR offsets, so an index that goes stale
// when repOff moves fails it.
func TestSlotReplica(t *testing.T) {
	const side, m, k, maxCap = 6, 2, 30, 6
	g := grid.New(side, grid.Torus)
	n := g.N()
	check := func(t *testing.T, name string, p *Placement) {
		t.Helper()
		slot := 0
		for j := 0; j < p.K(); j++ {
			for i := range p.Replicas(j) {
				if gotJ, gotI := p.SlotReplica(slot); gotJ != j || gotI != i {
					t.Fatalf("%s: slot %d maps to (%d,%d), want (%d,%d)", name, slot, gotJ, gotI, j, i)
				}
				slot++
			}
		}
		if slot != p.ReplicaSlots() {
			t.Fatalf("%s: ReplicaSlots=%d, enumerated %d", name, p.ReplicaSlots(), slot)
		}
	}
	for _, tiled := range []bool{false, true} {
		r := rand.New(rand.NewPCG(3, 5))
		pl := NewPlacer(n, m, k)
		pl.EnableHetero(maxCap)
		if tiled {
			pl.EnableTiles(g.NewTiling(3))
		}
		pl.EnableChurn()
		caps := heteroCaps(n, maxCap)
		vacant := make([]bool, n)
		for u := 0; u < n; u += 3 {
			vacant[u] = true
		}
		pl.SetHetero(caps, vacant)
		pop := dist.NewZipf(k, 0.9)
		p := pl.Place(pop, WithReplacement, r)
		check(t, fmt.Sprintf("tiled=%v/built", tiled), p)
		storm(p, r, vacant, 50, nil)
		check(t, fmt.Sprintf("tiled=%v/churned", tiled), p)
		check(t, fmt.Sprintf("tiled=%v/clone", tiled), p.Clone())
		for u := 0; u < n; u += 3 {
			pl.StageArrival(int32(u), pop, WithReplacement, r)
			if u%9 == 0 {
				pl.SpliceArrivals()
				check(t, fmt.Sprintf("tiled=%v/joined %d", tiled, u), p)
			}
		}
		pl.SpliceArrivals()
		check(t, fmt.Sprintf("tiled=%v/all joined", tiled), p)
		// A re-Place rebuilds the index for the new offsets.
		pl.SetHetero(caps, nil)
		check(t, fmt.Sprintf("tiled=%v/re-placed", tiled), pl.Place(pop, WithReplacement, r))
	}
}

// TestReplaceReplicaPanics pins the loud-failure contract of the
// slot-addressed primitives: placements built without EnableChurn, a
// slot outside S_j, a full destination, a position that is not the
// file's insertion point (including a destination that caches the file
// or is the source), and a swap index outside the destination's list.
func TestReplaceReplicaPanics(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	imm := NewPlacer(9, 2, 10).Place(dist.NewUniform(10), WithReplacement, r)
	mustPanic(t, "no EnableChurn", func() { imm.ReplaceReplica(0, 0, 1, 0) })
	mustPanic(t, "no EnableChurn swap", func() { imm.SwapReplicas(0, 0, 1, 0, 0, 0) })

	pl := NewPlacer(16, 3, 12)
	pl.EnableChurn()
	p := pl.Place(dist.NewUniform(12), WithReplacement, r)
	// A file j at u, a full node and a node with a free slot, neither
	// caching j, and another holder of j.
	var j int
	var u, full, free, holder int32
	for _, f := range p.CachedFiles() {
		j, u = int(f), p.Replicas(int(f))[0]
		full, free, holder = -1, -1, -1
		for v := int32(0); v < int32(p.N()); v++ {
			_, has := slices.BinarySearch(p.NodeFiles(int(v)), f)
			switch {
			case has && v != u:
				holder = v
			case !has && p.T(int(v)) >= p.M():
				full = v
			case !has:
				free = v
			}
		}
		if full >= 0 && free >= 0 && holder >= 0 {
			break
		}
	}
	if full < 0 || free < 0 || holder < 0 {
		t.Fatal("no file has a full, a free and a second holding node")
	}
	mustPanic(t, "slot outside S_j", func() { p.ReplaceReplica(j, p.ReplicaCount(j), free, 0) })
	mustPanic(t, "same node", func() { p.ReplaceReplica(j, 0, u, 0) })
	mustPanic(t, "destination caches the file", func() { p.ReplaceReplica(j, 0, holder, 0) })
	at, _ := slices.BinarySearch(p.NodeFiles(int(full)), int32(j))
	mustPanic(t, "full node", func() { p.ReplaceReplica(j, 0, full, at) })
	at, _ = slices.BinarySearch(p.NodeFiles(int(free)), int32(j))
	mustPanic(t, "wrong insertion point", func() { p.ReplaceReplica(j, 0, free, at+1) })
	at, _ = slices.BinarySearch(p.NodeFiles(int(full)), int32(j))
	mustPanic(t, "swap index outside v's list", func() { p.SwapReplicas(j, 0, full, at, p.T(int(full)), 0) })
	checkAgainstRebuild(t, p, nil)
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	f()
}

// BenchmarkReplaceReplica measures the incremental maintenance cost per
// migration event (placement CSR + tile index splices) at a paper-ish
// shape — the number docs/perf.md weighs against a full rebuild. Each
// iteration draws a replica and a destination and, when the destination
// has a free slot and lacks the file, migrates it.
func BenchmarkReplaceReplica(b *testing.B) {
	const side, m, k = 70, 10, 10000
	n := side * side
	g := grid.New(side, grid.Torus)
	r := rand.New(rand.NewPCG(11, 13))
	pl := NewPlacer(n, m, k)
	pl.EnableTiles(g.NewTiling(7))
	pl.EnableChurn()
	p := pl.Place(dist.NewZipf(k, 1.2), WithReplacement, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, s := p.SlotReplica(r.IntN(p.ReplicaSlots()))
		v := int32(r.IntN(n))
		if at, has := slices.BinarySearch(p.NodeFiles(int(v)), int32(j)); !has && p.T(int(v)) < p.M() {
			p.ReplaceReplica(j, s, v, at)
		}
	}
}
