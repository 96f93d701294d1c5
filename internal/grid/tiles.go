package grid

// Tile geometry for the spatial replica index.
//
// The lattice is partitioned into t×t tiles (the last tile of a row or
// column is smaller when t does not divide L). A radius-r ball overlaps
// only the O((r/t+2)²) tiles around its origin, so any per-tile bucketed
// structure — the cache package's TileIndex — can enumerate S_j ∩ B_r(u)
// by walking that tile cover instead of the whole replica list or the
// whole ball. CoverRows computes the cover per query as tile-row spans;
// CoverTable memoizes those rows over the origin's offset inside its
// tile, which is all a torus query depends on when the tiles divide the
// side and the cover does not wrap onto itself.
//
// Each covered tile is classified full (every cell within distance r of
// the origin) or partial (some cells beyond r). Candidates in full tiles
// need no distance check; partial tiles are filtered cell by cell.

// Tiling partitions a lattice into square tiles and fixes the tile-major
// node enumeration the replica index buckets by. Immutable after New and
// safe for concurrent use.
type Tiling struct {
	g        *Grid
	t        int     // tile side length
	perSide  int     // tiles per axis = ceil(L/t)
	tileOf   []int32 // node id → tile id
	order    []int32 // node ids grouped by tile id, ascending inside each tile
	orderOff []int32 // per tile: start offset into order (length Tiles+1)
	rank     []int32 // node id → its position in order
}

// NewTiling partitions g into t×t tiles. It panics if t <= 0.
func (g *Grid) NewTiling(t int) *Tiling {
	if t <= 0 {
		panic("grid: tile size must be positive")
	}
	if t > g.l {
		t = g.l
	}
	tl := &Tiling{g: g, t: t, perSide: (g.l + t - 1) / t}
	tl.tileOf = make([]int32, g.n)
	for u := 0; u < g.n; u++ {
		tl.tileOf[u] = int32(int(g.yOf[u])/t*tl.perSide + int(g.xOf[u])/t)
	}
	// Counting sort by tile id keeps each tile's nodes ascending.
	counts := make([]int32, tl.Tiles()+1)
	for _, tid := range tl.tileOf {
		counts[tid+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	tl.order = make([]int32, g.n)
	tl.rank = make([]int32, g.n)
	for u := 0; u < g.n; u++ {
		tid := tl.tileOf[u]
		tl.order[counts[tid]] = int32(u)
		tl.rank[u] = counts[tid]
		counts[tid]++
	}
	// counts now holds end offsets; rebuild the start-offset index.
	tl.orderOff = make([]int32, tl.Tiles()+1)
	copy(tl.orderOff[1:], counts[:tl.Tiles()])
	return tl
}

// Grid returns the underlying lattice.
func (tl *Tiling) Grid() *Grid { return tl.g }

// Tiles returns the number of tiles.
func (tl *Tiling) Tiles() int { return tl.perSide * tl.perSide }

// TileOf returns the tile containing node u.
func (tl *Tiling) TileOf(u int32) int32 { return tl.tileOf[u] }

// Order returns every node id grouped by tile (tile ids ascending, node
// ids ascending within a tile). The caller must not mutate it.
func (tl *Tiling) Order() []int32 { return tl.order }

// Rank returns node u's position in Order: the key (TileOf(u), u) as one
// int, so rank order is (tile, node) order.
func (tl *Tiling) Rank(u int32) int32 { return tl.rank[u] }

// OrderOff returns the per-tile offsets into Order: tile t's nodes are
// Order()[OrderOff()[t]:OrderOff()[t+1]]. The caller must not mutate it.
func (tl *Tiling) OrderOff() []int32 { return tl.orderOff }

// CoverRow is one run of covered tiles in one tile row, in deltas from
// the origin's tile: row Dty, columns C0..C1 in ascending order, of which
// F0..F1 lie fully inside the ball (F0 > F1 when none does). The
// absolute tiles are row wrap(uty+Dty) and columns wrap(utx+C0..C1); a
// memoized run may cross the torus's last column, and its reader splits
// it there.
type CoverRow struct {
	Dty, C0, C1, F0, F1 int32
}

// CoverRows appends the tiles overlapping B_r(u) to dst as row runs and
// returns them with u's tile column utx, tile row uty and the tiles per
// axis. Every node within distance r of u lies in exactly one emitted
// tile. Rows, and the columns inside a row, come in axisWalk order. A
// row holds several runs only where that order leaves its covered or
// full tiles non-contiguous: where the walk crosses the torus's last
// column, or the radius wraps the axis.
func (tl *Tiling) CoverRows(u, r int, dst []CoverRow) (rows []CoverRow, utx, uty, per int) {
	ux, uy := tl.g.Coord(u)
	utx, uty, per = ux/tl.t, uy/tl.t, tl.perSide
	if r < 0 {
		return dst, utx, uty, per
	}
	x0, nx := tl.axisWalk(ux, r)
	y0, ny := tl.axisWalk(uy, r)
	for i := 0; i < ny; i++ {
		ty := (y0 + i) % per
		dyMin, dyMax := tl.axisMinMax(uy, ty) // dyMin ≤ r: axisWalk met the row
		first := len(dst)
		for j := 0; j < nx; j++ {
			tx := (x0 + j) % per
			dxMin, dxMax := tl.axisMinMax(ux, tx)
			if dxMin+dyMin > r {
				continue
			}
			full := dxMax+dyMax <= r
			d := int32(tx - utx)
			if n := len(dst); n > first {
				// Extend the row's last run while the column is adjacent
				// and the full columns stay contiguous.
				run := &dst[n-1]
				if d == run.C1+1 && (!full || run.F0 > run.F1 || run.F1 == run.C1) {
					run.C1 = d
					if full {
						if run.F0 > run.F1 {
							run.F0 = d
						}
						run.F1 = d
					}
					continue
				}
			}
			run := CoverRow{Dty: int32(ty - uty), C0: d, C1: d, F0: d + 1, F1: d}
			if full {
				run.F0 = d
			}
			dst = append(dst, run)
		}
	}
	return dst, utx, uty, per
}

// axisWalk returns the tiles along one axis that hold a cell within axis
// distance r of coordinate c, as the cyclic run first, first+1, …,
// first+n−1 (mod tiles per axis) in the order a sweep from c−r to c+r
// meets them: clamped to the lattice on a bounded grid, every tile in
// ascending order once 2r+1 ≥ L on a torus, and otherwise from the tile
// of c−r, wrapping past the last tile at most once.
func (tl *Tiling) axisWalk(c, r int) (first, n int) {
	l, t := tl.g.l, tl.t
	if tl.g.topo != Torus {
		lo, hi := max(c-r, 0), min(c+r, l-1)
		return lo / t, hi/t - lo/t + 1
	}
	if 2*r+1 >= l {
		return 0, tl.perSide
	}
	lo, hi := (c-r+l)%l, (c+r)%l
	first, last := lo/t, hi/t
	if hi >= lo {
		return first, last - first + 1
	}
	// The sweep crossed the last cell; one that ends in the tile it
	// started in has met every tile once.
	return first, min(last-first+1+tl.perSide, tl.perSide)
}

// axisMinMax returns the smallest and largest axis distance from
// coordinate c to any cell of tile index i. Both bounds are exact: on the
// torus the distance peaks at the antipode(s) of c, so a tile containing
// one attains the axis diameter.
func (tl *Tiling) axisMinMax(c, i int) (dmin, dmax int) {
	g := tl.g
	lo := i * tl.t
	hi := min(lo+tl.t, g.l) - 1
	dlo, dhi := g.axisDist(c, lo), g.axisDist(c, hi)
	if lo <= c && c <= hi {
		dmin = 0
	} else {
		dmin = min(dlo, dhi)
	}
	dmax = max(dlo, dhi)
	if g.topo == Torus {
		half := g.l / 2
		for _, ap := range [2]int{c + half, c + (g.l+1)/2} {
			ap %= g.l
			if lo <= ap && ap <= hi {
				dmax = half
				break
			}
		}
	}
	return dmin, dmax
}

// CoverTable memoizes CoverRows for one radius on a torus whose tiles
// divide the side: there every origin's cover is a translate of the one
// around any origin at the same offset inside its tile, so the rows of
// each of the t² offsets are computed once and read per query. The memo
// meets the same tiles with the same flags in the same order as
// CoverRows, with one exception: at t = 1 and 2r+1 = L, where axisWalk
// lists the whole axis in ascending order, a memoized axis starts at
// the tile of c−r instead.
type CoverTable struct {
	tl       *Tiling
	rowStart []int32 // per offset oy*t+ox: its rows are rows[rowStart[off]:rowStart[off+1]]
	rows     []CoverRow
}

// NewCoverTable memoizes the radius-r cover rows. It returns nil where
// the memo does not apply — bounded grids (boundary clipping is
// origin-dependent), tiles that do not divide the side evenly (absolute
// tiles are not translates of each other), and radii whose cover wraps
// onto itself — and callers compute CoverRows per query there.
func (tl *Tiling) NewCoverTable(r int) *CoverTable {
	g, t := tl.g, tl.t
	if g.topo != Torus || r < 0 || g.l%t != 0 {
		return nil
	}
	// Unwrapped per-axis distances must equal the wrapped distances for
	// every cell of every covered tile; the farthest such cell sits at
	// most r+t-1 away on one axis, and the inequality must be strict —
	// at 2(r+t-1) = L (even L) the antipodal cell is reached from both
	// directions and a translated row would meet its tile twice.
	if 2*(r+t-1) >= g.l {
		return nil
	}
	// The rows are taken around the middle tile, whose cover crosses no
	// edge of the lattice, so its deltas hold for every origin tile.
	mid := tl.perSide / 2 * t
	ct := &CoverTable{tl: tl, rowStart: make([]int32, 0, t*t+1)}
	for oy := 0; oy < t; oy++ {
		for ox := 0; ox < t; ox++ {
			ct.rowStart = append(ct.rowStart, int32(len(ct.rows)))
			ct.rows, _, _, _ = tl.CoverRows(g.ID(mid+ox, mid+oy), r, ct.rows)
		}
	}
	ct.rowStart = append(ct.rowStart, int32(len(ct.rows)))
	return ct
}

// Rows returns the memoized CoverRows of u, which callers must not
// mutate, with u's tile coordinates and the tiles per axis.
func (ct *CoverTable) Rows(u int) (rows []CoverRow, utx, uty, per int) {
	tl := ct.tl
	t := tl.t
	ux, uy := int(tl.g.xOf[u]), int(tl.g.yOf[u])
	off := (uy%t)*t + ux%t
	return ct.rows[ct.rowStart[off]:ct.rowStart[off+1]], ux / t, uy / t, tl.perSide
}
