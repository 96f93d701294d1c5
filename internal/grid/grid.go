// Package grid implements the 2-D lattice topologies the paper's cache
// network lives on: the √n×√n torus (the default analysis model, Remark 1)
// and the bounded grid (the physical deployment the torus approximates).
//
// Nodes are identified by a dense integer index in [0, n) with row-major
// layout: node id = y*L + x. All distances are shortest-path hop counts,
// which on these 4-regular lattices equal the (wrapped) L1 distance.
package grid

import "fmt"

// Topology selects between the torus and the bounded grid.
type Topology int

const (
	// Torus wraps both dimensions; every node has exactly 4 neighbors and
	// the graph is vertex-transitive (no boundary effects).
	Torus Topology = iota
	// Bounded is the plain √n×√n grid with boundary.
	Bounded
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case Torus:
		return "torus"
	case Bounded:
		return "grid"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// ParseTopology converts a CLI-style name into a Topology.
func ParseTopology(s string) (Topology, error) {
	switch s {
	case "torus":
		return Torus, nil
	case "grid", "bounded":
		return Bounded, nil
	}
	return 0, fmt.Errorf("grid: unknown topology %q (want torus or grid)", s)
}

// Grid is an immutable L×L lattice. The zero value is not usable; use New.
type Grid struct {
	l    int
	n    int
	topo Topology
	// xOf/yOf memoize Coord: distance math is the innermost loop of every
	// strategy, and two table loads beat two integer divisions there.
	xOf, yOf []int32
	// xy packs both coordinates (x<<16 | y) so Dist touches one cache
	// line per node instead of two — the lookups are random-access over
	// Θ(n) tables, so at wide-world sizes the miss count is the cost.
	xy []int32
}

// New returns an L×L lattice with the given topology.
// It panics if l <= 0; the paper always uses l = √n ≥ 1.
func New(l int, topo Topology) *Grid {
	if l <= 0 {
		panic(fmt.Sprintf("grid: side length must be positive, got %d", l))
	}
	g := &Grid{l: l, n: l * l, topo: topo}
	g.xOf = make([]int32, g.n)
	g.yOf = make([]int32, g.n)
	if l < 1<<15 { // both packed halves must stay non-negative
		g.xy = make([]int32, g.n)
	}
	for u := 0; u < g.n; u++ {
		x, y := int32(u%l), int32(u/l)
		g.xOf[u] = x
		g.yOf[u] = y
		if g.xy != nil {
			g.xy[u] = x<<16 | y
		}
	}
	return g
}

// NewSquare returns the smallest square lattice with at least n nodes.
// The paper indexes experiments by the number of servers n; perfect squares
// are used throughout, and this helper rounds up for convenience.
func NewSquare(n int, topo Topology) *Grid {
	l := 1
	for l*l < n {
		l++
	}
	return New(l, topo)
}

// Side returns the lattice side length L.
func (g *Grid) Side() int { return g.l }

// N returns the number of nodes n = L².
func (g *Grid) N() int { return g.n }

// Topology reports whether the lattice wraps.
func (g *Grid) Topology() Topology { return g.topo }

// Coord returns the (x, y) coordinates of node u.
func (g *Grid) Coord(u int) (x, y int) { return int(g.xOf[u]), int(g.yOf[u]) }

// ID returns the node index for coordinates (x, y), which must be in range.
func (g *Grid) ID(x, y int) int { return y*g.l + x }

// Wrap maps arbitrary integer coordinates onto the torus (or clamps nothing
// on the bounded grid, where the caller must stay in range).
func (g *Grid) Wrap(x, y int) (int, int) {
	x %= g.l
	if x < 0 {
		x += g.l
	}
	y %= g.l
	if y < 0 {
		y += g.l
	}
	return x, y
}

// axisDist is the 1-D distance along one axis, wrapped iff torus.
func (g *Grid) axisDist(a, b int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if g.topo == Torus && g.l-d < d {
		d = g.l - d
	}
	return d
}

// Dist returns the shortest-path hop distance between nodes u and v.
func (g *Grid) Dist(u, v int) int {
	if g.xy != nil {
		pu, pv := g.xy[u], g.xy[v]
		return g.axisDist(int(pu>>16), int(pv>>16)) + g.axisDist(int(pu&0xffff), int(pv&0xffff))
	}
	ux, uy := g.Coord(u)
	vx, vy := g.Coord(v)
	return g.axisDist(ux, vx) + g.axisDist(uy, vy)
}

// Diameter returns the maximum distance between any two nodes.
func (g *Grid) Diameter() int {
	if g.topo == Torus {
		return 2 * (g.l / 2)
	}
	return 2 * (g.l - 1)
}

// BallSize returns |B_r(u)| on the torus: the number of nodes at distance
// at most r from any node. On the torus the count is node-independent;
// on the bounded grid this returns the unclipped interior value and callers
// who need exact boundary counts should use BallSizeAt.
func (g *Grid) BallSize(r int) int {
	if r < 0 {
		return 0
	}
	if g.topo == Torus {
		if r >= g.Diameter() {
			return g.n
		}
		// Count lattice points with wrapped L1 distance ≤ r by summing
		// per-row widths; exact for all r < diameter.
		count := 0
		half := g.l / 2
		for dy := -half; dy < g.l-half; dy++ {
			ay := dy
			if ay < 0 {
				ay = -ay
			}
			if wrapped := g.l - ay; g.topo == Torus && wrapped < ay {
				ay = wrapped
			}
			if ay > r {
				continue
			}
			rem := r - ay
			// x offsets range over one period; width is min(2*rem+1, L).
			w := 2*rem + 1
			if w > g.l {
				w = g.l
			}
			count += w
		}
		return count
	}
	return g.BallSizeAt(0, r)
}

// BallSizeAt returns |B_r(u)| exactly, honoring boundaries on bounded grids.
func (g *Grid) BallSizeAt(u, r int) int {
	if r < 0 {
		return 0
	}
	if g.topo == Torus {
		return g.BallSize(r)
	}
	if r >= g.Diameter() {
		return g.n
	}
	ux, uy := g.Coord(u)
	count := 0
	for dy := -r; dy <= r; dy++ {
		y := uy + dy
		if y < 0 || y >= g.l {
			continue
		}
		ady := dy
		if ady < 0 {
			ady = -ady
		}
		rem := r - ady
		lo, hi := ux-rem, ux+rem
		if lo < 0 {
			lo = 0
		}
		if hi >= g.l {
			hi = g.l - 1
		}
		if hi >= lo {
			count += hi - lo + 1
		}
	}
	return count
}

// Ball appends every node within distance r of u to dst and returns it.
// The order is deterministic (rows scanned top to bottom). Pass dst = nil
// or a recycled slice to control allocation.
func (g *Grid) Ball(u, r int, dst []int32) []int32 {
	if r < 0 {
		return dst
	}
	if r >= g.Diameter() {
		for v := 0; v < g.n; v++ {
			dst = append(dst, int32(v))
		}
		return dst
	}
	ux, uy := g.Coord(u)
	last := r
	if g.topo == Torus {
		// Small torus: from dy = L−r on, rows repeat those of dy − L.
		last = min(r, g.l-1-r)
	}
	for dy := -r; dy <= last; dy++ {
		y := uy + dy
		if g.topo == Torus {
			y = ((y % g.l) + g.l) % g.l
		} else if y < 0 || y >= g.l {
			continue
		}
		ady := dy
		if ady < 0 {
			ady = -ady
		}
		rem := r - ady
		if g.topo == Torus && ady > g.l/2 {
			// With wrapping the true vertical distance may be smaller;
			// recompute via axisDist for correctness on small tori.
			ady = g.axisDist(uy, y)
			if ady > r {
				continue
			}
			rem = r - ady
		}
		if g.topo == Torus && 2*rem+1 >= g.l {
			base := y * g.l
			for x := 0; x < g.l; x++ {
				dst = append(dst, int32(base+x))
			}
			continue
		}
		for dx := -rem; dx <= rem; dx++ {
			x := ux + dx
			if g.topo == Torus {
				x = ((x % g.l) + g.l) % g.l
			} else if x < 0 || x >= g.l {
				continue
			}
			dst = append(dst, int32(y*g.l+x))
		}
	}
	return dst
}

// Ring appends every node at distance exactly r from u to dst and returns
// it. Ring(u, 0) yields u itself.
func (g *Grid) Ring(u, r int, dst []int32) []int32 {
	if r < 0 {
		return dst
	}
	if r == 0 {
		return append(dst, int32(u))
	}
	ux, uy := g.Coord(u)
	// Walk the diamond |dx|+|dy| = r. On small tori the diamond wraps onto
	// itself: nodes can repeat or land closer than r, so dedupe and
	// re-verify the distance in that regime only.
	var seen map[int32]bool
	if g.topo == Torus && 2*r >= g.l {
		seen = make(map[int32]bool, 4*r)
	}
	emit := func(dx, dy int) {
		x, y := ux+dx, uy+dy
		if g.topo == Torus {
			x, y = g.Wrap(x, y)
		} else if x < 0 || x >= g.l || y < 0 || y >= g.l {
			return
		}
		id := int32(g.ID(x, y))
		if seen != nil {
			if g.Dist(u, int(id)) != r || seen[id] {
				return
			}
			seen[id] = true
		}
		dst = append(dst, id)
	}
	for dx := -r; dx <= r; dx++ {
		adx := dx
		if adx < 0 {
			adx = -adx
		}
		dy := r - adx
		emit(dx, dy)
		if dy != 0 {
			emit(dx, -dy)
		}
	}
	return dst
}

// Neighbors appends the direct lattice neighbors of u (degree 4 on the
// torus; 2–4 on the bounded grid) to dst and returns it.
func (g *Grid) Neighbors(u int, dst []int32) []int32 {
	ux, uy := g.Coord(u)
	type off struct{ dx, dy int }
	for _, o := range [...]off{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		x, y := ux+o.dx, uy+o.dy
		if g.topo == Torus {
			x, y = g.Wrap(x, y)
		} else if x < 0 || x >= g.l || y < 0 || y >= g.l {
			continue
		}
		v := g.ID(x, y)
		if v != u { // L==1 degenerate torus
			dst = append(dst, int32(v))
		}
	}
	return dst
}

// RadiusForBallSize returns the smallest r with |B_r| ≥ target on the
// torus. Used to translate the paper's r = n^β into a concrete hop radius.
func (g *Grid) RadiusForBallSize(target int) int {
	if target <= 1 {
		return 0
	}
	lo, hi := 0, g.Diameter()
	for lo < hi {
		mid := (lo + hi) / 2
		if g.BallSize(mid) >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
