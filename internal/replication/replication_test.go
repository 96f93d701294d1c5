package replication

import (
	"math"
	"testing"

	"repro/internal/dist"
)

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		Proportional: "proportional", SquareRoot: "sqrt",
		UniformPlace: "uniform", Capped: "capped", Policy(9): "Policy(9)",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestProportionalIsIdentity(t *testing.T) {
	pop := dist.NewZipf(50, 1.1)
	place := PlacementProfile(pop, Proportional, 0)
	for j := 0; j < 50; j++ {
		if place.P(j) != pop.P(j) {
			t.Fatalf("proportional changed P(%d)", j)
		}
	}
}

func TestSquareRootFlattens(t *testing.T) {
	pop := dist.NewZipf(100, 1.4)
	place := PlacementProfile(pop, SquareRoot, 0)
	// Sqrt placement compresses the head/tail ratio: (p0/pK)^(1/2).
	ratioPop := pop.P(0) / pop.P(99)
	ratioPlace := place.P(0) / place.P(99)
	if math.Abs(ratioPlace-math.Sqrt(ratioPop)) > 1e-9*ratioPop {
		t.Fatalf("sqrt ratio %v, want %v", ratioPlace, math.Sqrt(ratioPop))
	}
	// Still a distribution.
	s := 0.0
	for j := 0; j < place.K(); j++ {
		s += place.P(j)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("sqrt profile sums to %v", s)
	}
}

func TestUniformIgnoresPopularity(t *testing.T) {
	pop := dist.NewZipf(40, 2)
	place := PlacementProfile(pop, UniformPlace, 0)
	for j := 0; j < 40; j++ {
		if math.Abs(place.P(j)-1.0/40) > 1e-12 {
			t.Fatalf("uniform place P(%d) = %v", j, place.P(j))
		}
	}
}

func TestCappedBoundsMass(t *testing.T) {
	pop := dist.NewZipf(100, 1.5) // heavy head
	place := PlacementProfile(pop, Capped, 4)
	// After renormalization the max file mass can exceed cap/Σw slightly;
	// the defining property is that the *ratio* head/median shrinks and
	// no single file dominates: max mass ≤ 2 × 4/K is a safe envelope
	// given Σw ≥ 1/2 for this profile.
	maxP := 0.0
	for j := 0; j < place.K(); j++ {
		if place.P(j) > maxP {
			maxP = place.P(j)
		}
	}
	if maxP > 3*4.0/100 {
		t.Fatalf("capped max mass %v exceeds envelope %v", maxP, 3*4.0/100)
	}
	if maxP >= pop.P(0) {
		t.Fatalf("cap did not reduce head mass: %v vs %v", maxP, pop.P(0))
	}
	// Default factor path.
	place2 := PlacementProfile(pop, Capped, 0)
	if place2.K() != 100 {
		t.Fatal("default-cap profile broken")
	}
}

func TestPlacementProfilePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown policy did not panic")
		}
	}()
	PlacementProfile(dist.NewUniform(3), Policy(42), 0)
}

func TestMinExpectedReplicas(t *testing.T) {
	pop := dist.NewZipf(100, 1.2)
	n, m := 1000, 4
	prop := MinExpectedReplicas(PlacementProfile(pop, Proportional, 0), n, m)
	sq := MinExpectedReplicas(PlacementProfile(pop, SquareRoot, 0), n, m)
	uni := MinExpectedReplicas(PlacementProfile(pop, UniformPlace, 0), n, m)
	// Flattening placement raises the worst file's replica mass.
	if !(prop < sq && sq < uni) {
		t.Fatalf("min replicas not ordered: prop %v sqrt %v uniform %v", prop, sq, uni)
	}
	if math.Abs(uni-float64(n*m)/100) > 1e-9 {
		t.Fatalf("uniform min replicas %v, want %v", uni, float64(n*m)/100)
	}
}

func TestLoadSkew(t *testing.T) {
	pop := dist.NewZipf(50, 1.3)
	if s := LoadSkew(pop, PlacementProfile(pop, Proportional, 0)); math.Abs(s-1) > 1e-9 {
		t.Fatalf("proportional skew %v, want 1", s)
	}
	su := LoadSkew(pop, PlacementProfile(pop, UniformPlace, 0))
	ss := LoadSkew(pop, PlacementProfile(pop, SquareRoot, 0))
	// Uniform placement of a skewed catalog concentrates demand on the
	// head's few replicas: skew = K·p_0 > sqrt skew > 1.
	if !(su > ss && ss > 1) {
		t.Fatalf("skews not ordered: uniform %v sqrt %v", su, ss)
	}
	if math.Abs(su-50*pop.P(0)) > 1e-9 {
		t.Fatalf("uniform skew %v, want %v", su, 50*pop.P(0))
	}
}

func TestLoadSkewMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	LoadSkew(dist.NewUniform(3), dist.NewUniform(4))
}

func TestLoadSkewZeroPlacementMass(t *testing.T) {
	pop := dist.NewCustom([]float64{1, 1}, "pop")
	place := dist.NewCustom([]float64{1, 0}, "place")
	if s := LoadSkew(pop, place); !math.IsInf(s, 1) {
		t.Fatalf("uncacheable popular file should give +Inf skew, got %v", s)
	}
}
