// Package routing materializes the multi-hop delivery the paper abstracts
// as "communication cost": requests are routed hop by hop over torus links
// using deterministic dimension-ordered (XY) routing, and per-link traffic
// is accumulated. This turns the scalar cost C into a link-congestion
// profile, exposing a second load-balancing dimension (wire load) that the
// serving-node metric hides: nearest-replica keeps total traffic minimal,
// while radius-r two-choices spreads server load at the price of extra
// transit traffic concentrated around popular replicas.
package routing

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/stats"
)

// Dir enumerates the four torus link directions.
type Dir int

// Link directions out of a node.
const (
	East Dir = iota
	West
	North
	South
	numDirs
)

// String implements fmt.Stringer.
func (d Dir) String() string {
	switch d {
	case East:
		return "east"
	case West:
		return "west"
	case North:
		return "north"
	case South:
		return "south"
	default:
		return fmt.Sprintf("Dir(%d)", int(d))
	}
}

// LinkLoads accumulates traffic per directed link. Link (u, d) is the
// outgoing link of node u in direction d.
type LinkLoads struct {
	g    *grid.Grid
	load []int64 // n × numDirs, indexed u*4+d
}

// NewLinkLoads returns a zeroed accumulator over g's links.
func NewLinkLoads(g *grid.Grid) *LinkLoads {
	return &LinkLoads{g: g, load: make([]int64, g.N()*int(numDirs))}
}

// Grid returns the underlying lattice.
func (l *LinkLoads) Grid() *grid.Grid { return l.g }

// Reset zeroes every link counter so the accumulator can be reused for a
// new trial without reallocating.
func (l *LinkLoads) Reset() { clear(l.load) }

// Load returns the traffic on node u's outgoing link in direction d.
func (l *LinkLoads) Load(u int, d Dir) int64 { return l.load[u*int(numDirs)+int(d)] }

// add records one message crossing u's outgoing link d.
func (l *LinkLoads) add(u int, d Dir) { l.load[u*int(numDirs)+int(d)]++ }

// Total returns the total link crossings (= Σ path lengths).
func (l *LinkLoads) Total() int64 {
	var t int64
	for _, v := range l.load {
		t += v
	}
	return t
}

// Max returns the most-loaded link's traffic.
func (l *LinkLoads) Max() int64 {
	var m int64
	for _, v := range l.load {
		if v > m {
			m = v
		}
	}
	return m
}

// Summary returns moments of the per-link load distribution (all 4n
// directed links, including idle ones).
func (l *LinkLoads) Summary() stats.Summary {
	var s stats.Summary
	for _, v := range l.load {
		s.Add(float64(v))
	}
	return s
}

// CongestionFactor is Max / mean-over-links: 1.0 means perfectly even wire
// utilization; large values flag hot links.
func (l *LinkLoads) CongestionFactor() float64 {
	s := l.Summary()
	if s.Mean() == 0 {
		return 0
	}
	return float64(l.Max()) / s.Mean()
}

// signedStep returns the per-axis step count and direction for the
// shortest wrapped path from a to b along one axis of length L.
func signedStep(a, b, length int, wrap bool) (steps int, forward bool) {
	d := b - a
	if d < 0 {
		d = -d
		forward = false
	} else {
		forward = true
	}
	if wrap && length-d < d {
		// Going the other way around is shorter.
		return length - d, !forward
	}
	return d, forward
}

// Route walks the XY (x first, then y) shortest path from src to dst,
// incrementing every traversed link. It returns the hop count, which
// always equals grid.Dist(src, dst).
func (l *LinkLoads) Route(src, dst int) int {
	g := l.g
	sx, sy := g.Coord(src)
	dx, dy := g.Coord(dst)
	wrap := g.Topology() == grid.Torus
	hops := 0

	// X leg.
	steps, fwd := signedStep(sx, dx, g.Side(), wrap)
	x, y := sx, sy
	for i := 0; i < steps; i++ {
		u := g.ID(x, y)
		if fwd {
			l.add(u, East)
			x++
		} else {
			l.add(u, West)
			x--
		}
		if wrap {
			x, _ = g.Wrap(x, 0)
		}
		hops++
	}
	// Y leg.
	steps, fwd = signedStep(sy, dy, g.Side(), wrap)
	for i := 0; i < steps; i++ {
		u := g.ID(x, y)
		if fwd {
			l.add(u, South) // y grows "downward" in row-major layout
			y++
		} else {
			l.add(u, North)
			y--
		}
		if wrap {
			_, y = g.Wrap(0, y)
		}
		hops++
	}
	return hops
}

// Path returns the node sequence of the XY route from src to dst without
// recording traffic (for tests and visualization).
func Path(g *grid.Grid, src, dst int) []int32 {
	out := []int32{int32(src)}
	sx, sy := g.Coord(src)
	dx, dy := g.Coord(dst)
	wrap := g.Topology() == grid.Torus
	x, y := sx, sy
	steps, fwd := signedStep(sx, dx, g.Side(), wrap)
	for i := 0; i < steps; i++ {
		if fwd {
			x++
		} else {
			x--
		}
		if wrap {
			x, _ = g.Wrap(x, 0)
		}
		out = append(out, int32(g.ID(x, y)))
	}
	steps, fwd = signedStep(sy, dy, g.Side(), wrap)
	for i := 0; i < steps; i++ {
		if fwd {
			y++
		} else {
			y--
		}
		if wrap {
			_, y = g.Wrap(0, y)
		}
		out = append(out, int32(g.ID(x, y)))
	}
	return out
}
