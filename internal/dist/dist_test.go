package dist

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/xrand"
)

func sumsToOne(t *testing.T, p Popularity) {
	t.Helper()
	s := 0.0
	for _, q := range p.PMF() {
		if q < 0 {
			t.Fatalf("%s: negative mass %v", p.Name(), q)
		}
		s += q
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("%s: PMF sums to %v, want 1", p.Name(), s)
	}
}

func TestPMFSumsToOne(t *testing.T) {
	for _, p := range []Popularity{
		NewUniform(1),
		NewUniform(1000),
		NewZipf(1, 0.8),
		NewZipf(100, 0),
		NewZipf(100, 0.56),
		NewZipf(10000, 1.2),
		NewZipf(50, 4),
		NewCustom([]float64{1, 0, 2, 0, 3}, "gaps"),
		NewCustom([]float64{5}, "single"),
	} {
		sumsToOne(t, p)
	}
}

func TestPAgreesWithPMF(t *testing.T) {
	for _, p := range []Popularity{
		NewUniform(7),
		NewZipf(9, 1.3),
		NewCustom([]float64{0.5, 0, 2}, "c"),
	} {
		pmf := p.PMF()
		if len(pmf) != p.K() {
			t.Fatalf("%s: len(PMF) = %d, K = %d", p.Name(), len(pmf), p.K())
		}
		for i, q := range pmf {
			if p.P(i) != q {
				t.Fatalf("%s: P(%d) = %v, PMF[%d] = %v", p.Name(), i, p.P(i), i, q)
			}
		}
	}
}

func TestZipfShape(t *testing.T) {
	z := NewZipf(100, 1.4)
	// p_j ∝ (j+1)^-γ: check the head/tail ratio exactly.
	want := math.Pow(100, 1.4)
	got := z.P(0) / z.P(99)
	if math.Abs(got/want-1) > 1e-9 {
		t.Fatalf("head/tail ratio %v, want %v", got, want)
	}
	for j := 1; j < 100; j++ {
		if z.P(j) > z.P(j-1) {
			t.Fatalf("pmf not monotone at %d: %v > %v", j, z.P(j), z.P(j-1))
		}
	}
	if z.Gamma() != 1.4 {
		t.Fatalf("Gamma() = %v", z.Gamma())
	}
}

func TestZipfZeroGammaIsUniform(t *testing.T) {
	z := NewZipf(50, 0)
	for j := 0; j < 50; j++ {
		if math.Abs(z.P(j)-0.02) > 1e-12 {
			t.Fatalf("P(%d) = %v, want 0.02", j, z.P(j))
		}
	}
}

func TestCustomNormalizesAndCopies(t *testing.T) {
	w := []float64{2, 0, 6}
	c := NewCustom(w, "mix")
	w[0] = 1e9 // mutation after construction must not leak in
	if c.P(0) != 0.25 || c.P(1) != 0 || c.P(2) != 0.75 {
		t.Fatalf("pmf = %v", c.PMF())
	}
	if c.Name() != "mix" || c.K() != 3 {
		t.Fatalf("name=%q k=%d", c.Name(), c.K())
	}
}

func TestPMFReturnsCopy(t *testing.T) {
	z := NewZipf(4, 1)
	pmf := z.PMF()
	pmf[0] = 42
	if z.P(0) == 42 {
		t.Fatal("PMF aliases internal storage")
	}
}

func TestConstructorPanics(t *testing.T) {
	overflow := []float64{1e308, 1e308, 1} // finite weights, +Inf total
	cases := []struct {
		name string
		fn   func()
	}{
		{"uniform k=0", func() { NewUniform(0) }},
		{"zipf k=-1", func() { NewZipf(-1, 1) }},
		{"zipf gamma<0", func() { NewZipf(10, -0.5) }},
		{"zipf gamma NaN", func() { NewZipf(10, math.NaN()) }},
		{"custom empty", func() { NewCustom(nil, "x") }},
		{"custom negative", func() { NewCustom([]float64{1, -1}, "x") }},
		{"custom zero sum", func() { NewCustom([]float64{0, 0}, "x") }},
		{"alias empty", func() { NewAlias(nil) }},
		{"alias zero sum", func() { NewAlias([]float64{0}) }},
		{"cdf empty", func() { NewCDF(nil) }},
		{"cdf negative", func() { NewCDF([]float64{-1, 2}) }},
		{"alias overflow", func() { NewAlias(overflow) }},
		{"cdf overflow", func() { NewCDF(overflow) }},
		{"custom overflow", func() { NewCustom(overflow, "x") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
				if msg := fmt.Sprint(r); strings.Contains(tc.name, "overflow") && !strings.Contains(msg, "overflow") {
					t.Fatalf("%s: panic %q does not name the overflow", tc.name, msg)
				}
			}()
			tc.fn()
		})
	}
}

// empiricalMatches draws from sample and checks per-file frequencies
// against pmf within tol (absolute).
func empiricalMatches(t *testing.T, pmf []float64, sample func() int, draws int, tol float64) {
	t.Helper()
	counts := make([]int, len(pmf))
	for i := 0; i < draws; i++ {
		j := sample()
		if j < 0 || j >= len(pmf) {
			t.Fatalf("sample %d out of range [0,%d)", j, len(pmf))
		}
		counts[j]++
	}
	for j, p := range pmf {
		got := float64(counts[j]) / float64(draws)
		if math.Abs(got-p) > tol {
			t.Fatalf("file %d: empirical %v vs pmf %v (tol %v)", j, got, p, tol)
		}
		if p == 0 && counts[j] > 0 {
			t.Fatalf("file %d has zero mass but %d draws", j, counts[j])
		}
	}
}

func TestEmpiricalFrequencies(t *testing.T) {
	r := xrand.NewSource(7).Stream(0)
	const draws = 200000
	for _, p := range []Popularity{
		NewUniform(20),
		NewZipf(20, 1.0),
		NewZipf(30, 2.5),
		NewCustom([]float64{3, 0, 1, 6}, "mix"),
	} {
		empiricalMatches(t, p.PMF(), func() int { return p.Sample(r) }, draws, 0.01)
	}
}

func TestAliasMatchesCDFDistribution(t *testing.T) {
	// Alias and CDF implement the same distribution independently; their
	// empirical frequencies must both match the pmf.
	z := NewZipf(100, 1.2)
	pmf := z.PMF()
	al := NewAlias(pmf)
	cdf := NewCDF(pmf)
	r1 := xrand.NewSource(11).Stream(0)
	r2 := xrand.NewSource(11).Stream(1)
	const draws = 300000
	empiricalMatches(t, pmf, func() int { return al.Sample(r1) }, draws, 0.01)
	empiricalMatches(t, pmf, func() int { return cdf.Sample(r2) }, draws, 0.01)
}

func TestAliasUnnormalizedInput(t *testing.T) {
	// NewAlias accepts raw weights; scaling must not change the law.
	a := NewAlias([]float64{2, 6})
	r := xrand.NewSource(3).Stream(0)
	empiricalMatches(t, []float64{0.25, 0.75}, func() int { return a.Sample(r) }, 100000, 0.01)
	if a.K() != 2 {
		t.Fatalf("K = %d", a.K())
	}
}

func TestCDFTailReachable(t *testing.T) {
	// The last file must be sampled even with float residue in the table.
	c := NewCDF([]float64{1, 1, 1})
	r := xrand.NewSource(5).Stream(0)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		seen[c.Sample(r)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("support not covered: %v", seen)
	}
}

func TestSampleDeterminism(t *testing.T) {
	z := NewZipf(64, 1.1)
	a := make([]int, 100)
	b := make([]int, 100)
	r1 := xrand.NewSource(9).Stream(4)
	r2 := xrand.NewSource(9).Stream(4)
	for i := range a {
		a[i] = z.Sample(r1)
		b[i] = z.Sample(r2)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestDegenerateSingleFile(t *testing.T) {
	r := xrand.NewSource(1).Stream(0)
	for _, p := range []Popularity{NewUniform(1), NewZipf(1, 2), NewCustom([]float64{7}, "one")} {
		for i := 0; i < 10; i++ {
			if got := p.Sample(r); got != 0 {
				t.Fatalf("%s sampled %d", p.Name(), got)
			}
		}
		if p.P(0) != 1 {
			t.Fatalf("%s: P(0) = %v", p.Name(), p.P(0))
		}
	}
}

func TestSampleBatchMatchesSequentialSample(t *testing.T) {
	// Batch and sequential draws must consume the RNG identically — the
	// placement phase relies on this for bit-reproducible trials.
	profiles := []Popularity{
		NewUniform(37),
		NewZipf(64, 1.3),
		NewCustom([]float64{1, 0, 2, 5, 0.25}, "w"),
	}
	for _, p := range profiles {
		a := xrand.NewSource(7).Stream(3)
		b := xrand.NewSource(7).Stream(3)
		dst := make([]int32, 257)
		SampleBatch(p, a, dst)
		for i, got := range dst {
			if want := int32(p.Sample(b)); got != want {
				t.Fatalf("%s: draw %d: batch %d != sequential %d", p.Name(), i, got, want)
			}
		}
	}
}
