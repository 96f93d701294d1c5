package grid

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

// bruteDist recomputes the hop distance from first principles.
func bruteDist(g *Grid, u, v int) int {
	ux, uy := g.Coord(u)
	vx, vy := g.Coord(v)
	abs := func(a int) int {
		if a < 0 {
			return -a
		}
		return a
	}
	dx, dy := abs(ux-vx), abs(uy-vy)
	if g.Topology() == Torus {
		if w := g.Side() - dx; w < dx {
			dx = w
		}
		if w := g.Side() - dy; w < dy {
			dy = w
		}
	}
	return dx + dy
}

// bruteBall enumerates B_r(u) by scanning every node.
func bruteBall(g *Grid, u, r int) []int32 {
	var out []int32
	for v := 0; v < g.N(); v++ {
		if g.Dist(u, v) <= r {
			out = append(out, int32(v))
		}
	}
	return out
}

func sortedCopy(s []int32) []int32 {
	c := append([]int32(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

func equalSets(t *testing.T, got, want []int32, what string) {
	t.Helper()
	g, w := sortedCopy(got), sortedCopy(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d nodes, want %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: element %d: got %d want %d", what, i, g[i], w[i])
		}
	}
}

func TestTopologyString(t *testing.T) {
	if Torus.String() != "torus" || Bounded.String() != "grid" {
		t.Fatalf("unexpected names: %v %v", Torus, Bounded)
	}
	if Topology(9).String() != "Topology(9)" {
		t.Fatalf("unexpected fallback: %v", Topology(9))
	}
}

func TestParseTopology(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Topology
		ok   bool
	}{
		{"torus", Torus, true},
		{"grid", Bounded, true},
		{"bounded", Bounded, true},
		{"ring", 0, false},
	} {
		got, err := ParseTopology(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseTopology(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseTopology(%q) succeeded, want error", tc.in)
		}
	}
}

func TestNewPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, Torus) did not panic")
		}
	}()
	New(0, Torus)
}

func TestCoordIDRoundTrip(t *testing.T) {
	g := New(7, Torus)
	for u := 0; u < g.N(); u++ {
		x, y := g.Coord(u)
		if g.ID(x, y) != u {
			t.Fatalf("round trip failed for %d -> (%d,%d)", u, x, y)
		}
	}
}

func TestWrap(t *testing.T) {
	g := New(5, Torus)
	for _, tc := range []struct{ x, y, wx, wy int }{
		{0, 0, 0, 0}, {5, 5, 0, 0}, {-1, -1, 4, 4}, {7, -6, 2, 4}, {-10, 12, 0, 2},
	} {
		x, y := g.Wrap(tc.x, tc.y)
		if x != tc.wx || y != tc.wy {
			t.Errorf("Wrap(%d,%d) = (%d,%d), want (%d,%d)", tc.x, tc.y, x, y, tc.wx, tc.wy)
		}
	}
}

func TestDistMatchesBrute(t *testing.T) {
	for _, topo := range []Topology{Torus, Bounded} {
		for _, l := range []int{1, 2, 3, 5, 8} {
			g := New(l, topo)
			for u := 0; u < g.N(); u++ {
				for v := 0; v < g.N(); v++ {
					if got, want := g.Dist(u, v), bruteDist(g, u, v); got != want {
						t.Fatalf("%v L=%d Dist(%d,%d)=%d want %d", topo, l, u, v, got, want)
					}
				}
			}
		}
	}
}

func TestDistMetricProperties(t *testing.T) {
	g := New(9, Torus)
	cfg := &quick.Config{MaxCount: 500}
	symmetric := func(a, b uint16) bool {
		u, v := int(a)%g.N(), int(b)%g.N()
		return g.Dist(u, v) == g.Dist(v, u)
	}
	if err := quick.Check(symmetric, cfg); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	identity := func(a uint16) bool {
		u := int(a) % g.N()
		return g.Dist(u, u) == 0
	}
	if err := quick.Check(identity, cfg); err != nil {
		t.Errorf("identity: %v", err)
	}
	triangle := func(a, b, c uint16) bool {
		u, v, w := int(a)%g.N(), int(b)%g.N(), int(c)%g.N()
		return g.Dist(u, w) <= g.Dist(u, v)+g.Dist(v, w)
	}
	if err := quick.Check(triangle, cfg); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}
}

func TestDiameter(t *testing.T) {
	for _, tc := range []struct {
		l    int
		topo Topology
		want int
	}{
		{5, Torus, 4}, {6, Torus, 6}, {5, Bounded, 8}, {1, Torus, 0}, {1, Bounded, 0},
	} {
		g := New(tc.l, tc.topo)
		if got := g.Diameter(); got != tc.want {
			t.Errorf("L=%d %v Diameter = %d, want %d", tc.l, tc.topo, got, tc.want)
		}
		// Diameter must be attained and never exceeded.
		maxD := 0
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if d := g.Dist(u, v); d > maxD {
					maxD = d
				}
			}
		}
		if maxD != tc.want {
			t.Errorf("L=%d %v observed max dist %d, want %d", tc.l, tc.topo, maxD, tc.want)
		}
	}
}

func TestBallSizeMatchesBrute(t *testing.T) {
	for _, topo := range []Topology{Torus, Bounded} {
		for _, l := range []int{1, 2, 3, 4, 5, 7, 10} {
			g := New(l, topo)
			for u := 0; u < g.N(); u++ {
				for r := -1; r <= g.Diameter()+2; r++ {
					want := 0
					for v := 0; v < g.N(); v++ {
						if r >= 0 && g.Dist(u, v) <= r {
							want++
						}
					}
					if got := g.BallSizeAt(u, r); got != want {
						t.Fatalf("%v L=%d BallSizeAt(%d,%d)=%d want %d", topo, l, u, r, got, want)
					}
					if topo == Torus {
						if got := g.BallSize(r); got != want {
							t.Fatalf("torus L=%d BallSize(%d)=%d want %d (u=%d)", l, r, got, want, u)
						}
					}
				}
			}
		}
	}
}

func TestBallSizeInteriorFormula(t *testing.T) {
	// For r below the wrap threshold, |B_r| = 2r(r+1)+1 on the torus.
	g := New(101, Torus)
	for r := 0; r <= 50; r++ {
		want := 2*r*(r+1) + 1
		if got := g.BallSize(r); got != want {
			t.Fatalf("BallSize(%d) = %d, want %d", r, got, want)
		}
	}
}

func TestBallMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, topo := range []Topology{Torus, Bounded} {
		for _, l := range []int{1, 2, 3, 5, 9} {
			g := New(l, topo)
			for trial := 0; trial < 30; trial++ {
				u := rng.IntN(g.N())
				r := rng.IntN(g.Diameter() + 2)
				got := g.Ball(u, r, nil)
				equalSets(t, got, bruteBall(g, u, r), "Ball")
				// No duplicates.
				seen := map[int32]bool{}
				for _, v := range got {
					if seen[v] {
						t.Fatalf("%v L=%d Ball(%d,%d) duplicate node %d", topo, l, u, r, v)
					}
					seen[v] = true
				}
			}
		}
	}
}

func TestBallReusesDst(t *testing.T) {
	g := New(10, Torus)
	buf := make([]int32, 0, 64)
	b1 := g.Ball(3, 2, buf)
	if len(b1) != g.BallSize(2) {
		t.Fatalf("ball size %d, want %d", len(b1), g.BallSize(2))
	}
	if cap(b1) != cap(buf) {
		t.Fatalf("Ball reallocated despite sufficient capacity")
	}
}

func TestRingMatchesBrute(t *testing.T) {
	for _, topo := range []Topology{Torus, Bounded} {
		for _, l := range []int{1, 2, 3, 5, 8} {
			g := New(l, topo)
			for u := 0; u < g.N(); u += 3 {
				for r := 0; r <= g.Diameter()+1; r++ {
					var want []int32
					for v := 0; v < g.N(); v++ {
						if g.Dist(u, v) == r {
							want = append(want, int32(v))
						}
					}
					got := g.Ring(u, r, nil)
					equalSets(t, got, want, "Ring")
				}
			}
		}
	}
}

func TestRingZeroIsSelf(t *testing.T) {
	g := New(6, Torus)
	r := g.Ring(17, 0, nil)
	if len(r) != 1 || r[0] != 17 {
		t.Fatalf("Ring(u, 0) = %v, want [17]", r)
	}
}

func TestRingsPartitionBall(t *testing.T) {
	g := New(9, Torus)
	u := 40
	for r := 0; r <= g.Diameter(); r++ {
		total := 0
		for k := 0; k <= r; k++ {
			total += len(g.Ring(u, k, nil))
		}
		if total != g.BallSize(r) {
			t.Fatalf("rings 0..%d sum to %d, ball size %d", r, total, g.BallSize(r))
		}
	}
}

func TestNeighbors(t *testing.T) {
	g := New(5, Torus)
	for u := 0; u < g.N(); u++ {
		nb := g.Neighbors(u, nil)
		if len(nb) != 4 {
			t.Fatalf("torus node %d has %d neighbors, want 4", u, len(nb))
		}
		for _, v := range nb {
			if g.Dist(u, int(v)) != 1 {
				t.Fatalf("neighbor %d of %d at distance %d", v, u, g.Dist(u, int(v)))
			}
		}
	}
	gb := New(3, Bounded)
	// Corner has 2, edge 3, center 4.
	if got := len(gb.Neighbors(0, nil)); got != 2 {
		t.Errorf("bounded corner: %d neighbors, want 2", got)
	}
	if got := len(gb.Neighbors(1, nil)); got != 3 {
		t.Errorf("bounded edge: %d neighbors, want 3", got)
	}
	if got := len(gb.Neighbors(4, nil)); got != 4 {
		t.Errorf("bounded center: %d neighbors, want 4", got)
	}
}

func TestNeighborsDegenerate(t *testing.T) {
	g := New(1, Torus)
	if nb := g.Neighbors(0, nil); len(nb) != 0 {
		t.Fatalf("1x1 torus should have no self neighbors, got %v", nb)
	}
}

func TestVertexTransitivityOfTorusBalls(t *testing.T) {
	// Property: on the torus |B_r(u)| is the same for every u.
	g := New(8, Torus)
	check := func(a uint16, b uint8) bool {
		u := int(a) % g.N()
		r := int(b) % (g.Diameter() + 1)
		return g.BallSizeAt(u, r) == g.BallSize(r)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDist(b *testing.B) {
	g := New(347, Torus)
	u, v := 12345, 98765
	for i := 0; i < b.N; i++ {
		_ = g.Dist(u, v)
	}
}

func BenchmarkBallR10(b *testing.B) {
	g := New(347, Torus)
	buf := make([]int32, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = g.Ball(60000, 10, buf[:0])
	}
}
