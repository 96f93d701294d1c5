package dist

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// builderCases are weight vectors spanning the shapes the conditioned
// request stream produces: dense, gappy (uncached files at zero), single
// survivor, heavy skew.
func builderCases() [][]float64 {
	zipfish := make([]float64, 400)
	for i := range zipfish {
		zipfish[i] = 1 / float64((i+1)*(i+1))
	}
	gappy := make([]float64, 50)
	for i := 0; i < 50; i += 3 {
		gappy[i] = float64(i + 1)
	}
	return [][]float64{
		{1},
		{1, 2, 3, 4},
		{0, 5, 0, 0, 1, 0},
		{1e-12, 1, 1e12},
		gappy,
		zipfish,
	}
}

// TestAliasBuilderMatchesNewAlias pins the arena construction to the
// allocating one: identical tables, identical sample streams, across
// repeated reuse of one builder (no state may leak between builds).
func TestAliasBuilderMatchesNewAlias(t *testing.T) {
	for ci, w := range builderCases() {
		b := NewAliasBuilder(len(w))
		if b.K() != len(w) {
			t.Fatalf("case %d: K() = %d, want %d", ci, b.K(), len(w))
		}
		// Build twice through the same builder: the second build must not
		// see residue from the first.
		for round := 0; round < 2; round++ {
			want := NewAlias(w)
			got := b.Build(w)
			if got.zone != want.zone {
				t.Fatalf("case %d round %d: reject zone %d, want %d", ci, round, got.zone, want.zone)
			}
			for i := range w {
				if got.cols[i] != want.cols[i] {
					t.Fatalf("case %d round %d: column %d: built %#x, want %#x",
						ci, round, i, got.cols[i], want.cols[i])
				}
			}
			ra := xrand.NewSource(uint64(ci)).Stream(uint64(round))
			rb := xrand.NewSource(uint64(ci)).Stream(uint64(round))
			for n := 0; n < 2000; n++ {
				if a, b := want.Sample(ra), got.Sample(rb); a != b {
					t.Fatalf("case %d round %d: draw %d: %d != %d", ci, round, n, a, b)
				}
			}
		}
	}
}

// TestAliasBuilderReuseAcrossShapes rebuilds one builder over different
// weight vectors of the same size; every build must equal a fresh table.
func TestAliasBuilderReuseAcrossShapes(t *testing.T) {
	const k = 64
	b := NewAliasBuilder(k)
	for seed := uint64(0); seed < 8; seed++ {
		r := xrand.NewSource(seed).Stream(0)
		w := make([]float64, k)
		for i := range w {
			if r.IntN(3) > 0 { // leave ~1/3 at zero, like a conditioned stream
				w[i] = r.Float64() + 1e-3
			}
		}
		want, got := NewAlias(w), b.Build(w)
		for i := range w {
			if got.cols[i] != want.cols[i] {
				t.Fatalf("seed %d column %d: built %#x, want %#x", seed, i, got.cols[i], want.cols[i])
			}
		}
	}
}

// TestAliasBuilderZeroAllocs is the arena contract: steady-state rebuilds
// allocate nothing.
func TestAliasBuilderZeroAllocs(t *testing.T) {
	w := builderCases()[5]
	b := NewAliasBuilder(len(w))
	if n := testing.AllocsPerRun(20, func() { b.Build(w) }); n != 0 {
		t.Fatalf("AliasBuilder.Build allocates %.1f/op, want 0", n)
	}
}

// TestCustomBuilderMatchesNewCustom pins the arena profile to NewCustom:
// same pmf bits, same name, same sample stream.
func TestCustomBuilderMatchesNewCustom(t *testing.T) {
	for ci, w := range builderCases() {
		b := NewCustomBuilder(len(w))
		if b.K() != len(w) {
			t.Fatalf("case %d: K() = %d, want %d", ci, b.K(), len(w))
		}
		for round := 0; round < 2; round++ {
			name := fmt.Sprintf("case%d", ci)
			want := NewCustom(w, name)
			got := b.Build(w, name)
			if got.Name() != want.Name() || got.K() != want.K() {
				t.Fatalf("case %d: name/k mismatch: %q/%d vs %q/%d",
					ci, got.Name(), got.K(), want.Name(), want.K())
			}
			for i := range w {
				if got.P(i) != want.P(i) {
					t.Fatalf("case %d: P(%d) = %v, want %v", ci, i, got.P(i), want.P(i))
				}
			}
			ra := xrand.NewSource(uint64(ci)).Stream(7)
			rb := xrand.NewSource(uint64(ci)).Stream(7)
			for n := 0; n < 2000; n++ {
				if a, b := want.Sample(ra), got.Sample(rb); a != b {
					t.Fatalf("case %d round %d: draw %d: %d != %d", ci, round, n, a, b)
				}
			}
		}
	}
}

// TestCustomBuilderZeroAllocs: a rebuild with a precomputed name string is
// allocation-free.
func TestCustomBuilderZeroAllocs(t *testing.T) {
	w := builderCases()[5]
	b := NewCustomBuilder(len(w))
	const name = "steady"
	if n := testing.AllocsPerRun(20, func() { b.Build(w, name) }); n != 0 {
		t.Fatalf("CustomBuilder.Build allocates %.1f/op, want 0", n)
	}
}

func TestBuilderPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s did not panic", name)
			} else if strings.Contains(name, "overflow") && !strings.Contains(fmt.Sprint(r), "overflow") {
				t.Errorf("%s: panic %q does not name the overflow", name, r)
			}
		}()
		f()
	}
	expectPanic("NewAliasBuilder(0)", func() { NewAliasBuilder(0) })
	expectPanic("NewCustomBuilder(-1)", func() { NewCustomBuilder(-1) })
	expectPanic("AliasBuilder size mismatch", func() { NewAliasBuilder(3).Build([]float64{1, 2}) })
	expectPanic("CustomBuilder size mismatch", func() { NewCustomBuilder(2).Build([]float64{1, 2, 3}, "x") })
	expectPanic("AliasBuilder zero weights", func() { NewAliasBuilder(2).Build([]float64{0, 0}) })
	overflow := []float64{1e308, 1e308, 1}
	expectPanic("AliasBuilder overflow", func() { NewAliasBuilder(3).Build(overflow) })
	expectPanic("CustomBuilder overflow", func() { NewCustomBuilder(3).Build(overflow, "x") })
}

// TestRequestBatchMatchesSequential is the RNG-stream equivalence
// property: for every profile family, filling a trial block in one call
// consumes the two streams exactly as per-request sequential draws would,
// and any chunk partition of the block produces bit-identical ids.
func TestRequestBatchMatchesSequential(t *testing.T) {
	const n = 225 // origin space
	profiles := []Popularity{
		NewUniform(40),
		NewZipf(300, 1.2),
		NewCustom([]float64{3, 0, 1, 0, 0, 8, 2}, "gaps"),
	}
	for pi, pop := range profiles {
		const total = 1000
		// Sequential reference: one draw per request from each stream.
		or, fr := xrand.NewSource(9).Stream(uint64(pi)), xrand.NewSource(10).Stream(uint64(pi))
		wantO, wantF := make([]int32, total), make([]int32, total)
		for i := 0; i < total; i++ {
			wantO[i] = int32(or.IntN(n))
			wantF[i] = int32(pop.Sample(fr))
		}
		for _, chunk := range []int{1, 7, 64, total} {
			or := xrand.NewSource(9).Stream(uint64(pi))
			fr := xrand.NewSource(10).Stream(uint64(pi))
			gotO, gotF := make([]int32, total), make([]int32, total)
			for base := 0; base < total; base += chunk {
				c := min(chunk, total-base)
				RequestBatch(or, fr, n, pop, gotO[base:base+c], gotF[base:base+c])
			}
			for i := 0; i < total; i++ {
				if gotO[i] != wantO[i] || gotF[i] != wantF[i] {
					t.Fatalf("%s chunk=%d: request %d: got (%d,%d), want (%d,%d)",
						pop.Name(), chunk, i, gotO[i], gotF[i], wantO[i], wantF[i])
				}
			}
		}
	}
}

func TestRequestBatchPanics(t *testing.T) {
	r := xrand.NewSource(1).Stream(0)
	pop := NewUniform(4)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched slices did not panic")
		}
	}()
	RequestBatch(r, r, 10, pop, make([]int32, 3), make([]int32, 4))
}
