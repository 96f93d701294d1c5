package grid

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// bruteCover computes, for every tile, whether it intersects B_r(u) and
// whether it is fully inside, by scanning every node.
func bruteCover(g *Grid, tl *Tiling, u, r int) (overlap, full map[int32]bool) {
	overlap = map[int32]bool{}
	full = map[int32]bool{}
	inBall := make(map[int32]int) // tile → in-ball node count
	total := make(map[int32]int)  // tile → node count
	for v := 0; v < g.N(); v++ {
		tid := tl.TileOf(int32(v))
		total[tid]++
		if g.Dist(u, v) <= r {
			inBall[tid]++
		}
	}
	for tid, c := range inBall {
		if c > 0 {
			overlap[tid] = true
			full[tid] = c == total[tid]
		}
	}
	return overlap, full
}

// coverConfigs spans topologies, divisible and non-divisible tile sizes,
// and radii from tiny to wrapping.
func coverConfigs() []struct {
	l, t, r int
	topo    Topology
} {
	return []struct {
		l, t, r int
		topo    Topology
	}{
		{12, 3, 2, Torus},
		{12, 3, 4, Torus},
		{12, 4, 3, Torus},
		{12, 5, 4, Torus}, // t does not divide L
		{13, 4, 5, Torus}, // odd side
		{10, 3, 7, Torus}, // cover wraps onto itself
		{9, 2, 8, Torus},  // 2r+1 >= L: whole torus
		{12, 3, 2, Bounded},
		{12, 5, 6, Bounded},
		{7, 7, 3, Bounded}, // single tile
		{16, 1, 5, Torus},  // tile size 1
		{7, 1, 3, Torus},   // memo applies although 2r+1 = L
	}
}

// expandRows resolves cover rows into absolute tile ids and full flags,
// in the order a row walk meets them.
func expandRows(rows []CoverRow, utx, uty, per int) (ids []int32, full []bool) {
	wrap := func(v int) int { return ((v % per) + per) % per }
	for _, row := range rows {
		ty := wrap(uty + int(row.Dty))
		for d := row.C0; d <= row.C1; d++ {
			ids = append(ids, int32(ty*per+wrap(utx+int(d))))
			full = append(full, row.F0 <= d && d <= row.F1)
		}
	}
	return ids, full
}

// coverQuery is one lattice and the origins a cover test queries on it.
type coverQuery struct {
	l, t, r int
	topo    Topology
	origins []int
}

// everyOrigin queries each coverConfigs lattice at every node.
func everyOrigin() []coverQuery {
	var qs []coverQuery
	for _, c := range coverConfigs() {
		all := make([]int, c.l*c.l)
		for u := range all {
			all[u] = u
		}
		qs = append(qs, coverQuery{c.l, c.t, c.r, c.topo, all})
	}
	return qs
}

// checkRowsMatchBruteForce is the cover property: on every queried
// lattice the per-query rows (perQuery) and the CoverTable memo wherever
// it applies (memo) expand to exactly the tiles overlapping B_r(u), each
// once, with exactly the brute force's full flags. It returns how many
// lattices the memo applied to.
func checkRowsMatchBruteForce(t *testing.T, queries []coverQuery, perQuery, memo bool) (memoized int) {
	t.Helper()
	for _, q := range queries {
		g := New(q.l, q.topo)
		tl := g.NewTiling(q.t)
		ct := tl.NewCoverTable(q.r)
		if ct != nil {
			memoized++
		}
		var buf []CoverRow
		for _, u := range q.origins {
			check := func(form string, ids []int32, full []bool) {
				t.Helper()
				where := fmt.Sprintf("l=%d t=%d r=%d %v u=%d %s", q.l, q.t, q.r, q.topo, u, form)
				wantOverlap, wantFull := bruteCover(g, tl, u, q.r)
				if len(ids) != len(wantOverlap) {
					t.Fatalf("%s: rows expand to %d tiles %v, brute force %d", where, len(ids), ids, len(wantOverlap))
				}
				for i, tid := range ids {
					if !wantOverlap[tid] {
						t.Fatalf("%s: tile %d emitted twice or outside the ball", where, tid)
					}
					if full[i] != wantFull[tid] {
						t.Fatalf("%s: tile %d full=%v, brute force %v", where, tid, full[i], wantFull[tid])
					}
					delete(wantOverlap, tid)
				}
			}
			if perQuery {
				var utx, uty, per int
				buf, utx, uty, per = tl.CoverRows(u, q.r, buf[:0])
				ids, full := expandRows(buf, utx, uty, per)
				check("per-query", ids, full)
			}
			if memo && ct != nil {
				ids, full := expandRows(ct.Rows(u))
				check("memo", ids, full)
			}
		}
	}
	return memoized
}

// TestCoverMatchesBruteForce: on every coverConfigs lattice — bounded
// grids, tiles that do not divide the side, radii that wrap an axis — the
// per-query rows at every origin cover B_r(u) exactly, with exact full
// flags.
func TestCoverMatchesBruteForce(t *testing.T) {
	checkRowsMatchBruteForce(t, everyOrigin(), true, false)
}

// TestCoverRandomized checks the same property, for the per-query rows
// and the memo, on random lattices, radii and origins.
func TestCoverRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	var queries []coverQuery
	for it := 0; it < 200; it++ {
		l := 5 + rng.IntN(20)
		q := coverQuery{l: l, t: 1 + rng.IntN(l), r: rng.IntN(l + 2), topo: Topology(rng.IntN(2))}
		for range 3 {
			q.origins = append(q.origins, rng.IntN(l*l))
		}
		queries = append(queries, q)
	}
	checkRowsMatchBruteForce(t, queries, true, true)
}

// TestCoverTableMatchesCover: wherever the CoverTable memo applies, its
// rows at every origin satisfy the same property as the per-query rows;
// on the lattices where the memo cannot hold it must not be built.
func TestCoverTableMatchesCover(t *testing.T) {
	if checkRowsMatchBruteForce(t, everyOrigin(), false, true) == 0 {
		t.Fatal("no lattice exercised the CoverTable memo")
	}
	for _, bad := range []struct {
		l, t, r int
		topo    Topology
	}{
		{12, 3, 2, Bounded}, // bounded: clipping is origin-dependent
		{12, 5, 2, Torus},   // t does not divide L
		{10, 3, 7, Torus},   // 2(r+t-1) > L: wrapped distances diverge
		{10, 1, 5, Torus},   // 2(r+t-1) = L: the antipodal tile would be met twice
	} {
		if New(bad.l, bad.topo).NewTiling(bad.t).NewCoverTable(bad.r) != nil {
			t.Errorf("l=%d t=%d r=%d %v: memo should not apply", bad.l, bad.t, bad.r, bad.topo)
		}
	}
}

// TestTilingOrder: Order is a permutation of all nodes, grouped by
// ascending tile with ascending node ids inside each group.
func TestTilingOrder(t *testing.T) {
	for _, c := range coverConfigs() {
		g := New(c.l, c.topo)
		tl := g.NewTiling(c.t)
		order := tl.Order()
		if len(order) != g.N() {
			t.Fatalf("order length %d, want %d", len(order), g.N())
		}
		seen := make([]bool, g.N())
		lastTile, lastNode := int32(-1), int32(-1)
		for _, u := range order {
			if seen[u] {
				t.Fatalf("node %d repeated in order", u)
			}
			seen[u] = true
			tid := tl.TileOf(u)
			switch {
			case tid < lastTile:
				t.Fatalf("tile order regressed: %d after %d", tid, lastTile)
			case tid > lastTile:
				lastTile, lastNode = tid, u
			case u < lastNode:
				t.Fatalf("node order regressed inside tile %d: %d after %d", tid, u, lastNode)
			default:
				lastNode = u
			}
		}
	}
}

// TestTilingRank: Rank inverts Order on tilings that divide the side and
// on tilings that do not, so comparing ranks compares (TileOf(u), u)
// keys.
func TestTilingRank(t *testing.T) {
	// 12/5 and 13/4 leave clipped last tiles; the rest divide the side.
	for _, c := range []struct{ l, t int }{{12, 3}, {12, 5}, {13, 4}, {7, 7}, {16, 1}} {
		g := New(c.l, Torus)
		tl := g.NewTiling(c.t)
		for i, u := range tl.Order() {
			if got := tl.Rank(u); got != int32(i) {
				t.Fatalf("l=%d t=%d: Rank(Order()[%d] = %d) = %d", c.l, c.t, i, u, got)
			}
		}
		for u := int32(0); u < int32(g.N()); u++ {
			for v := int32(0); v < int32(g.N()); v++ {
				keyLess := tl.TileOf(u) < tl.TileOf(v) || tl.TileOf(u) == tl.TileOf(v) && u < v
				if keyLess != (tl.Rank(u) < tl.Rank(v)) {
					t.Fatalf("l=%d t=%d: nodes %d, %d: key order %v, rank order %v",
						c.l, c.t, u, v, keyLess, tl.Rank(u) < tl.Rank(v))
				}
			}
		}
	}
}

// TestTileOfGeometry: TileOf matches coordinate arithmetic and every tile
// is a contiguous t×t (or clipped) block.
func TestTileOfGeometry(t *testing.T) {
	g := New(11, Torus)
	tl := g.NewTiling(4) // 11 = 4+4+3: clipped last tiles
	if tl.Tiles() != 9 {
		t.Fatalf("Tiles() = %d, want 9", tl.Tiles())
	}
	for u := 0; u < g.N(); u++ {
		x, y := g.Coord(u)
		want := int32((y/4)*3 + x/4)
		if tl.TileOf(int32(u)) != want {
			t.Fatalf("TileOf(%d) = %d, want %d", u, tl.TileOf(int32(u)), want)
		}
	}
}
