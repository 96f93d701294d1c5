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

// TestReplaceReplicaStorm interleaves random legal ReplaceReplica
// batches with full set-equality checks against a from-scratch rebuild,
// across index modes, placement modes and popularity profiles — the
// property contract of the churn subsystem.
func TestReplaceReplicaStorm(t *testing.T) {
	const side, m = 8, 3
	n := side * side
	g := grid.New(side, grid.Torus)
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
				for e := 0; e < 25; e++ {
					slot := r.IntN(p.ReplicaSlots())
					j, u := p.SlotReplica(slot)
					v := int32(r.IntN(n))
					if p.CanReplace(j, u, v) {
						p.ReplaceReplica(j, u, v)
						moved++
						continue
					}
					if v == u || p.Has(int(v), j) || p.T(int(v)) < p.M() {
						continue
					}
					vFiles := p.NodeFiles(int(v))
					j2 := int(vFiles[r.IntN(len(vFiles))])
					if p.CanSwap(j, u, j2, v) {
						p.SwapReplicas(j, u, j2, v)
						swapped++
					}
				}
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
	for slot := 0; slot < p.ReplicaSlots(); slot++ {
		j, u := p.SlotReplica(slot)
		for v := 0; v < p.N(); v++ {
			if p.CanReplace(j, u, int32(v)) {
				t.Fatalf("file %d u=%d v=%d: migration legal on a full placement", j, u, v)
			}
		}
	}
}

// TestSlotReplica checks the flat-slot inverse mapping against the CSR.
func TestSlotReplica(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 5))
	pl := NewPlacer(25, 2, 30)
	pl.EnableChurn()
	p := pl.Place(dist.NewZipf(30, 0.9), WithReplacement, r)
	slot := 0
	for j := 0; j < p.K(); j++ {
		for _, u := range p.Replicas(j) {
			gotJ, gotU := p.SlotReplica(slot)
			if gotJ != j || gotU != u {
				t.Fatalf("slot %d: got (%d,%d), want (%d,%d)", slot, gotJ, gotU, j, u)
			}
			slot++
		}
	}
	if slot != p.ReplicaSlots() {
		t.Fatalf("ReplicaSlots=%d, enumerated %d", p.ReplicaSlots(), slot)
	}
}

// TestReplaceReplicaPanics pins the loud-failure contract for illegal
// migrations and placements built without EnableChurn.
func TestReplaceReplicaPanics(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	imm := NewPlacer(9, 2, 10).Place(dist.NewUniform(10), WithReplacement, r)
	mustPanic(t, "no EnableChurn", func() { imm.ReplaceReplica(0, 0, 1) })
	mustPanic(t, "no EnableChurn swap", func() { imm.SwapReplicas(0, 0, 1, 1) })

	pl := NewPlacer(9, 2, 10)
	pl.EnableChurn()
	p := pl.Place(dist.NewUniform(10), WithReplacement, r)
	var j int
	var u int32
	for f := 0; f < p.K(); f++ {
		if len(p.Replicas(f)) > 0 {
			j, u = f, p.Replicas(f)[0]
			break
		}
	}
	mustPanic(t, "same node", func() { p.ReplaceReplica(j, u, u) })
	for v := int32(0); v < int32(p.N()); v++ {
		if v != u && !p.Has(int(v), j) && p.T(int(v)) >= p.M() {
			mustPanic(t, "full node", func() { p.ReplaceReplica(j, u, v) })
			break
		}
	}
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
// shape — the number docs/perf.md weighs against a full rebuild.
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
		slot := r.IntN(p.ReplicaSlots())
		j, u := p.SlotReplica(slot)
		v := int32(r.IntN(n))
		if p.CanReplace(j, u, v) {
			p.ReplaceReplica(j, u, v)
		}
	}
}
