package grid

// Tile geometry for the spatial replica index.
//
// The lattice is partitioned into t×t tiles (the last tile of a row or
// column is smaller when t does not divide L). A radius-r ball overlaps
// only the O((r/t+2)²) tiles around its origin, so any per-tile bucketed
// structure — the cache package's TileIndex — can enumerate S_j ∩ B_r(u)
// by walking that tile cover instead of the whole replica list or the
// whole ball. Cover computes the overlap set per query; CoverTable
// precomputes it as a template over the origin's offset inside its tile,
// which is all a torus query depends on.
//
// Each covered tile is classified full (every cell within distance r of
// the origin) or partial (some cells beyond r). Candidates in full tiles
// need no distance check; partial tiles are filtered cell by cell.

// Tiling partitions a lattice into square tiles and fixes the tile-major
// node enumeration the replica index buckets by. Immutable after New and
// safe for concurrent use; per-query scratch lives in CoverBuf.
type Tiling struct {
	g        *Grid
	t        int     // tile side length
	perSide  int     // tiles per axis = ceil(L/t)
	tileOf   []int32 // node id → tile id
	order    []int32 // node ids grouped by tile id, ascending inside each tile
	orderOff []int32 // per tile: start offset into order (length Tiles+1)
	txOf     []int16 // tile id → tile x index (memoized: Classify is hot)
	tyOf     []int16 // tile id → tile y index
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
	for u := 0; u < g.n; u++ {
		tid := tl.tileOf[u]
		tl.order[counts[tid]] = int32(u)
		counts[tid]++
	}
	// counts now holds end offsets; rebuild the start-offset index.
	tl.orderOff = make([]int32, tl.Tiles()+1)
	copy(tl.orderOff[1:], counts[:tl.Tiles()])
	tl.txOf = make([]int16, tl.Tiles())
	tl.tyOf = make([]int16, tl.Tiles())
	for id := range tl.txOf {
		tl.txOf[id] = int16(id % tl.perSide)
		tl.tyOf[id] = int16(id / tl.perSide)
	}
	return tl
}

// Classify reports whether tile tid overlaps B_r(u) and whether it lies
// fully inside — the same classification Cover emits, computable for one
// tile in O(1). The spatial index uses it to intersect a sparse per-file
// tile directory with a ball by walking the directory instead of the
// cover.
func (tl *Tiling) Classify(tid int32, u, r int) (overlap, full bool) {
	ux, uy := tl.g.Coord(u)
	xlo, xhi := tl.axisRange(int32(tl.txOf[tid]))
	dxMin, dxMax := tl.axisMinMax(ux, xlo, xhi)
	if dxMin > r {
		return false, false
	}
	ylo, yhi := tl.axisRange(int32(tl.tyOf[tid]))
	dyMin, dyMax := tl.axisMinMax(uy, ylo, yhi)
	return dxMin+dyMin <= r, dxMax+dyMax <= r
}

// Grid returns the underlying lattice.
func (tl *Tiling) Grid() *Grid { return tl.g }

// TileSize returns the tile side length t.
func (tl *Tiling) TileSize() int { return tl.t }

// Tiles returns the number of tiles.
func (tl *Tiling) Tiles() int { return tl.perSide * tl.perSide }

// TileOf returns the tile containing node u.
func (tl *Tiling) TileOf(u int32) int32 { return tl.tileOf[u] }

// Order returns every node id grouped by tile (tile ids ascending, node
// ids ascending within a tile). The caller must not mutate it.
func (tl *Tiling) Order() []int32 { return tl.order }

// OrderOff returns the per-tile offsets into Order: tile t's nodes are
// Order()[OrderOff()[t]:OrderOff()[t+1]]. The caller must not mutate it.
func (tl *Tiling) OrderOff() []int32 { return tl.orderOff }

// CoverBuf holds one query's tile cover plus the per-axis scratch the
// computation reuses. IDs[i] is a covered tile; Full[i] reports whether
// every cell of that tile lies within the query radius of the origin.
type CoverBuf struct {
	IDs  []int32
	Full []bool
	xs   []int32
	ys   []int32
}

// axisTiles appends the distinct tile indices along one axis whose cell
// range intersects [c-r, c+r] (wrapped on the torus, clamped on the
// bounded grid). Indices are emitted walking the interval left to right;
// on a torus the walk wraps at most once, so duplicates can only pair a
// trailing index with a leading one and the linear dedup scan stays O(1)
// amortized over the tiny result.
func (tl *Tiling) axisTiles(c, r int, dst []int32) []int32 {
	l, t := tl.g.l, tl.t
	if tl.g.topo != Torus {
		lo, hi := c-r, c+r
		if lo < 0 {
			lo = 0
		}
		if hi >= l {
			hi = l - 1
		}
		for i := int32(lo / t); i <= int32(hi/t); i++ {
			dst = append(dst, i)
		}
		return dst
	}
	if 2*r+1 >= l {
		for i := int32(0); i < int32(tl.perSide); i++ {
			dst = append(dst, i)
		}
		return dst
	}
	base := len(dst)
	for x := c - r; x <= c+r; {
		wx := x % l
		if wx < 0 {
			wx += l
		}
		ti := int32(wx / t)
		dup := false
		for _, seen := range dst[base:] {
			if seen == ti {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, ti)
		}
		// Jump to the next tile boundary; the last tile of the axis is
		// clipped to the lattice edge when t does not divide L.
		x += min((int(ti)+1)*t, l) - wx
	}
	return dst
}

// axisRange returns the cell interval [lo, hi] of tile index i on one axis.
func (tl *Tiling) axisRange(i int32) (lo, hi int) {
	lo = int(i) * tl.t
	hi = lo + tl.t - 1
	if hi >= tl.g.l {
		hi = tl.g.l - 1
	}
	return lo, hi
}

// axisMinMax returns the smallest and largest axis distance from
// coordinate c to any cell of the interval [lo, hi]. Both bounds are
// exact: on the torus the distance peaks at the antipode(s) of c, so an
// interval containing one attains the axis diameter.
func (tl *Tiling) axisMinMax(c, lo, hi int) (dmin, dmax int) {
	g := tl.g
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

// Cover fills b with the tiles overlapping B_r(u) and their full/partial
// classification. Every node within distance r of u belongs to exactly
// one emitted tile, and no tile is emitted twice.
func (tl *Tiling) Cover(u, r int, b *CoverBuf) {
	b.IDs, b.Full = b.IDs[:0], b.Full[:0]
	if r < 0 {
		return
	}
	ux, uy := tl.g.Coord(u)
	b.xs = tl.axisTiles(ux, r, b.xs[:0])
	b.ys = tl.axisTiles(uy, r, b.ys[:0])
	for _, ty := range b.ys {
		ylo, yhi := tl.axisRange(ty)
		dyMin, dyMax := tl.axisMinMax(uy, ylo, yhi)
		if dyMin > r {
			continue
		}
		for _, tx := range b.xs {
			xlo, xhi := tl.axisRange(tx)
			dxMin, dxMax := tl.axisMinMax(ux, xlo, xhi)
			if dxMin+dyMin > r {
				continue
			}
			b.IDs = append(b.IDs, ty*int32(tl.perSide)+tx)
			b.Full = append(b.Full, dxMax+dyMax <= r)
		}
	}
}

// CoverTable replays Cover for one fixed radius from precomputed
// per-origin-offset templates: on a torus with uniform tiles the cover
// depends only on the origin's offset inside its tile, so the tile
// deltas and full/partial flags are computed once per (tiling, radius)
// and replayed with one add and one wrap per tile.
type CoverTable struct {
	tl    *Tiling
	start []int32 // per offset (oy*t+ox), indexes into dtx/dty/full
	dtx   []int16
	dty   []int16
	full  []bool
	// Row-span form of the same template: one entry per covered tile
	// row, for consumers that walk rows instead of tiles.
	rowStart []int32 // per offset, indexes into rows
	rows     []CoverRow
	// Template-wide delta extremes, for the O(1) Bounds fast path.
	minD, maxD int
}

// CoverRow is one tile-row of a cover template, in deltas relative to
// the origin's tile: row Dty covers tile columns [C0, C1], of which
// [F0, F1] lie fully inside the ball (F0 > F1 when none does). Within a
// row the covered columns and the full columns are always contiguous —
// the tile overlap condition is dxMin ≤ r−dyMin and the full condition
// dxMax ≤ r−dyMax, and both dxMin and dxMax are V-shaped in the column.
type CoverRow struct {
	Dty, C0, C1, F0, F1 int16
}

// NewCoverTable precomputes the radius-r cover template. It returns nil
// when the template does not apply — bounded grids (boundary clipping is
// origin-dependent), tiles that do not divide the side evenly (absolute
// tiles are not translates of each other), and radii whose cover wraps
// onto itself — in which case callers fall back to Cover.
func (tl *Tiling) NewCoverTable(r int) *CoverTable {
	g, t := tl.g, tl.t
	if g.topo != Torus || r < 0 || g.l%t != 0 {
		return nil
	}
	// Unwrapped per-axis distances must equal the wrapped distances for
	// every cell of every covered tile; the farthest such cell sits at
	// most r+t-1 away on one axis, and the inequality must be strict —
	// at 2(r+t-1) = L (even L) the antipodal cell is reached from both
	// directions and the template would emit its tile twice.
	if 2*(r+t-1) >= g.l {
		return nil
	}
	ct := &CoverTable{tl: tl}
	span := r/t + 1
	for oy := 0; oy < t; oy++ {
		for ox := 0; ox < t; ox++ {
			ct.start = append(ct.start, int32(len(ct.dtx)))
			ct.rowStart = append(ct.rowStart, int32(len(ct.rows)))
			for dty := -span; dty <= span; dty++ {
				dyMin, dyMax := absRangeMinMax(dty*t-oy, dty*t-oy+t-1)
				if dyMin > r {
					continue
				}
				row := CoverRow{Dty: int16(dty), C0: 1, C1: 0, F0: 1, F1: 0}
				for dtx := -span; dtx <= span; dtx++ {
					dxMin, dxMax := absRangeMinMax(dtx*t-ox, dtx*t-ox+t-1)
					if dxMin+dyMin > r {
						continue
					}
					full := dxMax+dyMax <= r
					ct.dtx = append(ct.dtx, int16(dtx))
					ct.dty = append(ct.dty, int16(dty))
					ct.full = append(ct.full, full)
					if row.C0 > row.C1 {
						row.C0 = int16(dtx)
					}
					row.C1 = int16(dtx)
					if full {
						if row.F0 > row.F1 {
							row.F0 = int16(dtx)
						}
						row.F1 = int16(dtx)
					}
				}
				if row.C0 <= row.C1 {
					ct.rows = append(ct.rows, row)
				}
			}
		}
	}
	ct.start = append(ct.start, int32(len(ct.dtx)))
	ct.rowStart = append(ct.rowStart, int32(len(ct.rows)))
	for i := range ct.dtx {
		ct.minD = min(ct.minD, int(ct.dtx[i]), int(ct.dty[i]))
		ct.maxD = max(ct.maxD, int(ct.dtx[i]), int(ct.dty[i]))
	}
	return ct
}

// Bounds returns the smallest and largest tile id of the radius cover
// around u in O(1), with ok=false when the cover wraps around the torus
// (the ids then do not form one ascending run). The bounds bracket the
// cover: lo is the first covered tile, hi the last.
func (ct *CoverTable) Bounds(u int) (lo, hi int32, ok bool) {
	tl := ct.tl
	t, per := tl.t, tl.perSide
	ux, uy := int(tl.g.xOf[u]), int(tl.g.yOf[u])
	utx, uty := ux/t, uy/t
	if utx+ct.minD < 0 || utx+ct.maxD >= per || uty+ct.minD < 0 || uty+ct.maxD >= per {
		return 0, 0, false
	}
	off := (uy%t)*t + ux%t
	s, e := ct.start[off], ct.start[off+1]-1
	lo = int32((uty+int(ct.dty[s]))*per + utx + int(ct.dtx[s]))
	hi = int32((uty+int(ct.dty[e]))*per + utx + int(ct.dtx[e]))
	return lo, hi, true
}

// absRangeMinMax returns min/max of |v| over the integer interval [lo, hi].
func absRangeMinMax(lo, hi int) (dmin, dmax int) {
	alo, ahi := lo, hi
	if alo < 0 {
		alo = -alo
	}
	if ahi < 0 {
		ahi = -ahi
	}
	if lo <= 0 && 0 <= hi {
		dmin = 0
	} else {
		dmin = min(alo, ahi)
	}
	return dmin, max(alo, ahi)
}

// Rows exposes the row-span template for origin u, plus the coordinates
// needed to resolve absolute tiles (row = wrap(uty+Dty), columns
// wrap(utx+C0..C1)). Callers must not mutate the returned slice.
func (ct *CoverTable) Rows(u int) (rows []CoverRow, utx, uty, per int) {
	tl := ct.tl
	t := tl.t
	ux, uy := int(tl.g.xOf[u]), int(tl.g.yOf[u])
	off := (uy%t)*t + ux%t
	return ct.rows[ct.rowStart[off]:ct.rowStart[off+1]], ux / t, uy / t, tl.perSide
}

// Cover fills b with the radius-r cover around u — identical as a
// (tile, full) set to Tiling.Cover at the table's radius.
func (ct *CoverTable) Cover(u int, b *CoverBuf) {
	b.IDs, b.Full = b.IDs[:0], b.Full[:0]
	tl := ct.tl
	t, per := tl.t, tl.perSide
	ux, uy := int(tl.g.xOf[u]), int(tl.g.yOf[u])
	utx, uty := ux/t, uy/t
	off := (uy%t)*t + ux%t
	for i := ct.start[off]; i < ct.start[off+1]; i++ {
		tx := utx + int(ct.dtx[i])
		if tx >= per {
			tx -= per
		} else if tx < 0 {
			tx += per
		}
		ty := uty + int(ct.dty[i])
		if ty >= per {
			ty -= per
		} else if ty < 0 {
			ty += per
		}
		b.IDs = append(b.IDs, int32(ty*per+tx))
		b.Full = append(b.Full, ct.full[i])
	}
}
