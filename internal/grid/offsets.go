package grid

// Precomputed enumeration templates for balls and rings on the torus.
//
// Ball and Ring re-derive the diamond |dx|+|dy| ≤ r on every call. On the
// torus the enumeration is translation-invariant whenever the diamond does
// not wrap onto itself, so the relative offsets can be computed once per
// (grid, radius) and replayed for any origin with two adds and two
// conditional wraps per node. The templates reproduce Ball's and Ring's
// output order exactly (verified by property tests), so compiled and
// direct enumeration are interchangeable bit for bit in any sampling that
// indexes into the result.

// BallTable replays B_r(·) for one fixed radius from precomputed offsets.
type BallTable struct {
	g      *Grid
	r      int
	dx, dy []int16
}

// NewBallTable precomputes the ball template for radius r. It returns nil
// when the template does not apply — bounded grids (boundary clipping is
// origin-dependent) and tori whose diamond wraps or fills whole rows
// (2r+1 ≥ L, where Ball switches to absolute-order row emission) — in
// which case callers fall back to Ball.
func (g *Grid) NewBallTable(r int) *BallTable {
	if g.topo != Torus || r < 0 || 2*r+1 >= g.l || r >= g.Diameter() {
		return nil
	}
	t := &BallTable{g: g, r: r}
	for dy := -r; dy <= r; dy++ {
		ady := dy
		if ady < 0 {
			ady = -ady
		}
		rem := r - ady
		for dx := -rem; dx <= rem; dx++ {
			t.dx = append(t.dx, int16(dx))
			t.dy = append(t.dy, int16(dy))
		}
	}
	return t
}

// Radius returns the radius the table was built for.
func (t *BallTable) Radius() int { return t.r }

// Size returns |B_r|.
func (t *BallTable) Size() int { return len(t.dx) }

// NodeAt returns the i-th node of B_r(u) (Ball enumeration order) for
// the origin u at coordinates (ux, uy) in O(1), without materializing the
// ball. i must lie in [0, Size()). The caller supplies the coordinates —
// no coordinate-table loads, which matters in rejection loops that probe
// the same origin many times.
func (t *BallTable) NodeAt(ux, uy, i int) int32 {
	l := t.g.l
	x := ux + int(t.dx[i])
	if x >= l {
		x -= l
	} else if x < 0 {
		x += l
	}
	y := uy + int(t.dy[i])
	if y >= l {
		y -= l
	} else if y < 0 {
		y += l
	}
	return int32(y*l + x)
}

// Append appends every node within distance r of u to dst, in the same
// order as Grid.Ball(u, r, dst).
func (t *BallTable) Append(u int, dst []int32) []int32 {
	l := t.g.l
	ux, uy := u%l, u/l
	for i := range t.dx {
		x := ux + int(t.dx[i])
		if x >= l {
			x -= l
		} else if x < 0 {
			x += l
		}
		y := uy + int(t.dy[i])
		if y >= l {
			y -= l
		} else if y < 0 {
			y += l
		}
		dst = append(dst, int32(y*l+x))
	}
	return dst
}

// RingTable replays rings of every radius 0..maxR from one precomputed
// offset arena (total size Θ(n)), falling back to Ring beyond maxR.
type RingTable struct {
	g      *Grid
	start  []int32 // start[d] indexes the first offset of ring d
	dx, dy []int16
	maxR   int
}

// NewRingTable precomputes ring templates for the torus. Rings wrap onto
// themselves once 2d ≥ L, so templates cover d ≤ (L-1)/2; Ring handles
// larger radii (the nearest-replica search rarely reaches them). It
// returns nil on bounded grids.
func (g *Grid) NewRingTable() *RingTable {
	if g.topo != Torus {
		return nil
	}
	maxR := (g.l - 1) / 2
	if d := g.Diameter(); maxR > d {
		maxR = d
	}
	t := &RingTable{g: g, maxR: maxR}
	for d := 0; d <= maxR; d++ {
		t.start = append(t.start, int32(len(t.dx)))
		if d == 0 {
			t.dx = append(t.dx, 0)
			t.dy = append(t.dy, 0)
			continue
		}
		// Same order as Ring: dx = -d..d, emit (dx, d-|dx|) then its
		// mirror (dx, |dx|-d) when non-degenerate.
		for dx := -d; dx <= d; dx++ {
			adx := dx
			if adx < 0 {
				adx = -adx
			}
			dy := d - adx
			t.dx = append(t.dx, int16(dx))
			t.dy = append(t.dy, int16(dy))
			if dy != 0 {
				t.dx = append(t.dx, int16(dx))
				t.dy = append(t.dy, int16(-dy))
			}
		}
	}
	t.start = append(t.start, int32(len(t.dx)))
	return t
}

// Ring appends every node at distance exactly d from u to dst, in the same
// order as Grid.Ring(u, d, dst).
func (t *RingTable) Ring(u, d int, dst []int32) []int32 {
	if d < 0 {
		return dst
	}
	if d > t.maxR {
		return t.g.Ring(u, d, dst)
	}
	l := t.g.l
	ux, uy := u%l, u/l
	for i := t.start[d]; i < t.start[d+1]; i++ {
		x := ux + int(t.dx[i])
		if x >= l {
			x -= l
		} else if x < 0 {
			x += l
		}
		y := uy + int(t.dy[i])
		if y >= l {
			y -= l
		} else if y < 0 {
			y += l
		}
		dst = append(dst, int32(y*l+x))
	}
	return dst
}
