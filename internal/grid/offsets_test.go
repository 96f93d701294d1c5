package grid

import "testing"

// TestBallTableMatchesBall pins the contract the compiled simulation layer
// relies on: the template replays Ball's output byte for byte, for every
// origin, on every torus size where it claims to apply.
func TestBallTableMatchesBall(t *testing.T) {
	for _, l := range []int{3, 4, 5, 7, 8, 12, 15} {
		g := New(l, Torus)
		for r := 0; r <= l; r++ {
			bt := g.NewBallTable(r)
			if 2*r+1 >= l || r >= g.Diameter() {
				if bt != nil {
					t.Fatalf("L=%d r=%d: table should not apply", l, r)
				}
				continue
			}
			if bt == nil {
				t.Fatalf("L=%d r=%d: expected a table", l, r)
			}
			if bt.Size() != g.BallSize(r) {
				t.Fatalf("L=%d r=%d: size %d want %d", l, r, bt.Size(), g.BallSize(r))
			}
			for u := 0; u < g.N(); u++ {
				want := g.Ball(u, r, nil)
				got := bt.Append(u, nil)
				if len(want) != len(got) {
					t.Fatalf("L=%d r=%d u=%d: len %d want %d", l, r, u, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("L=%d r=%d u=%d: pos %d got %d want %d", l, r, u, i, got[i], want[i])
					}
				}
			}
		}
	}
	if New(5, Bounded).NewBallTable(2) != nil {
		t.Fatal("bounded grid must not produce a ball table")
	}
}

// TestRingTableMatchesRing pins the same replay contract for rings,
// including the fallback above maxR.
func TestRingTableMatchesRing(t *testing.T) {
	for _, l := range []int{3, 4, 5, 7, 10, 13} {
		g := New(l, Torus)
		rt := g.NewRingTable()
		if rt == nil {
			t.Fatalf("L=%d: expected a ring table", l)
		}
		for d := 0; d <= g.Diameter()+1; d++ {
			for u := 0; u < g.N(); u++ {
				want := g.Ring(u, d, nil)
				got := rt.Ring(u, d, nil)
				if len(want) != len(got) {
					t.Fatalf("L=%d d=%d u=%d: len %d want %d", l, d, u, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("L=%d d=%d u=%d: pos %d got %d want %d", l, d, u, i, got[i], want[i])
					}
				}
			}
		}
	}
	if New(5, Bounded).NewRingTable() != nil {
		t.Fatal("bounded grid must not produce a ring table")
	}
}
