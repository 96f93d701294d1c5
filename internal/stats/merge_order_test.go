package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

// These tests pin Accumulator.Merge and Reset under adversarial shard
// shapes: empty shards (more workers than work), single-sample shards,
// values on the histogram clamp boundary, and arbitrary merge
// groupings. Merge is the reduction for any parallel streaming metric,
// so its exactness properties (counts, histogram mass, max) and its
// float behaviour (moments exact in expectation, stable under grouping)
// are frozen here.

// fillAcc distributes obs round-robin over k accumulators and returns
// them; shard i gets obs[i], obs[i+k], ...
func fillAcc(obs []int, k, bound int) []*Accumulator {
	accs := make([]*Accumulator, k)
	for i := range accs {
		accs[i] = NewAccumulator(bound)
	}
	for i, v := range obs {
		accs[i%k].Observe(v)
	}
	return accs
}

// mergeAll folds accs into a fresh accumulator in the given order.
func mergeAll(accs []*Accumulator, order []int, bound int) *Accumulator {
	m := NewAccumulator(bound)
	for _, i := range order {
		m.Merge(accs[i])
	}
	return m
}

// TestAccumulatorMergeMatchesSerial: a k-way shard-and-merge reproduces
// the serial fold's exact quantities (count, max, histogram-derived
// quantiles) and its moments to float tolerance, for shard counts that
// force empty and single-sample shards.
func TestAccumulatorMergeMatchesSerial(t *testing.T) {
	const bound = 16
	obs := []int{3, 0, 16, 7, 2, 16, 1, 25, 4, 4, 0, 9, 11, 1, 30, 16}
	serial := NewAccumulator(bound)
	for _, v := range obs {
		serial.Observe(v)
	}
	// k > len(obs) leaves shards empty; k = len(obs) makes every shard
	// single-sample.
	for _, k := range []int{1, 2, 3, 5, len(obs), len(obs) + 7} {
		accs := fillAcc(obs, k, bound)
		order := make([]int, k)
		for i := range order {
			order[i] = i
		}
		m := mergeAll(accs, order, bound)
		if m.N() != serial.N() {
			t.Fatalf("k=%d: N = %d, want %d", k, m.N(), serial.N())
		}
		if m.Max() != serial.Max() {
			t.Fatalf("k=%d: Max = %d, want %d", k, m.Max(), serial.Max())
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if got, want := m.Quantile(q), serial.Quantile(q); got != want {
				t.Errorf("k=%d q=%v: Quantile = %d, want %d (histogram mass must merge exactly)", k, q, got, want)
			}
		}
		if d := math.Abs(m.Mean() - serial.Mean()); d > 1e-12 {
			t.Errorf("k=%d: Mean off by %v", k, d)
		}
		if d := math.Abs(m.Std() - serial.Std()); d > 1e-9 {
			t.Errorf("k=%d: Std off by %v", k, d)
		}
	}
}

// TestAccumulatorMergeOrderPermutations: for a fixed shard partition,
// merging the shards in a fixed order is what the engine relies on for
// P-invariance — but the exact quantities must be identical under
// *every* permutation, and the moments must agree across permutations
// to tolerance. Shards include an empty one and a single-sample one by
// construction.
func TestAccumulatorMergeOrderPermutations(t *testing.T) {
	const bound = 8
	accs := []*Accumulator{
		NewAccumulator(bound), // stays empty
		NewAccumulator(bound),
		NewAccumulator(bound),
		NewAccumulator(bound),
	}
	accs[1].Observe(8) // clamp boundary value, single sample
	for _, v := range []int{0, 3, 3, 12, 7} {
		accs[2].Observe(v) // 12 clamps into the top bucket
	}
	for _, v := range []int{1, 1, 2, 8, 0, 5} {
		accs[3].Observe(v)
	}
	perms := [][]int{
		{0, 1, 2, 3},
		{3, 2, 1, 0},
		{1, 3, 0, 2},
		{2, 0, 3, 1},
	}
	ref := mergeAll(accs, perms[0], bound)
	for _, p := range perms[1:] {
		m := mergeAll(accs, p, bound)
		if m.N() != ref.N() || m.Max() != ref.Max() {
			t.Fatalf("perm %v: N/Max = %d/%d, want %d/%d", p, m.N(), m.Max(), ref.N(), ref.Max())
		}
		for q := 0.0; q <= 1.0; q += 0.1 {
			if m.Quantile(q) != ref.Quantile(q) {
				t.Errorf("perm %v q=%.1f: Quantile = %d, want %d", p, q, m.Quantile(q), ref.Quantile(q))
			}
		}
		if d := math.Abs(m.Mean() - ref.Mean()); d > 1e-12 {
			t.Errorf("perm %v: Mean off by %v", p, d)
		}
		if d := math.Abs(m.Std() - ref.Std()); d > 1e-9 {
			t.Errorf("perm %v: Std off by %v", p, d)
		}
	}
}

// TestAccumulatorMergeEmptyIdentity: merging an empty accumulator is an
// identity in both directions — the exact shape the engine hits when a
// chunk has fewer granules than workers.
func TestAccumulatorMergeEmptyIdentity(t *testing.T) {
	const bound = 8
	a := NewAccumulator(bound)
	for _, v := range []int{2, 5, 8, 1} {
		a.Observe(v)
	}
	before := *a
	a.Merge(NewAccumulator(bound))
	if a.N() != before.N() || a.Mean() != before.Mean() || a.Std() != before.Std() || a.Max() != before.Max() {
		t.Errorf("merging empty changed the accumulator: %+v -> %+v", before.sum, a.sum)
	}
	empty := NewAccumulator(bound)
	empty.Merge(a)
	if empty.N() != a.N() || empty.Mean() != a.Mean() || empty.Std() != a.Std() || empty.Max() != a.Max() {
		t.Errorf("empty.Merge(a) did not copy a: N=%d mean=%v", empty.N(), empty.Mean())
	}
	if empty.Quantile(0.5) != a.Quantile(0.5) {
		t.Errorf("empty.Merge(a) lost histogram mass: q50 %d vs %d", empty.Quantile(0.5), a.Quantile(0.5))
	}
}

// TestAccumulatorResetBetweenMergeRounds models a barrier cycle of
// partial accumulators: they are merged then Reset, round after
// round, and must behave as if freshly constructed each round — no
// residue in the moments, the max, or the histogram (including the
// clamp bucket).
func TestAccumulatorResetBetweenMergeRounds(t *testing.T) {
	const bound = 4
	rng := rand.New(rand.NewPCG(1, 2))
	gran := []*Accumulator{NewAccumulator(bound), NewAccumulator(bound), NewAccumulator(bound)}
	trial := NewAccumulator(bound)
	oracle := NewAccumulator(bound)
	for round := 0; round < 10; round++ {
		for _, acc := range gran {
			// Rounds leave some granules empty; values straddle the
			// clamp bound.
			k := rng.IntN(4)
			for i := 0; i < k; i++ {
				v := rng.IntN(2 * bound)
				acc.Observe(v)
				oracle.Observe(v)
			}
		}
		for _, acc := range gran {
			trial.Merge(acc)
			acc.Reset()
			if acc.N() != 0 || acc.Max() != 0 || acc.Quantile(1) != 0 {
				t.Fatalf("round %d: Reset left residue: N=%d Max=%d", round, acc.N(), acc.Max())
			}
		}
	}
	if trial.N() != oracle.N() || trial.Max() != oracle.Max() {
		t.Fatalf("after 10 rounds: N/Max = %d/%d, want %d/%d", trial.N(), trial.Max(), oracle.N(), oracle.Max())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 1} {
		if trial.Quantile(q) != oracle.Quantile(q) {
			t.Errorf("q=%v: %d, want %d", q, trial.Quantile(q), oracle.Quantile(q))
		}
	}
	if d := math.Abs(trial.Mean() - oracle.Mean()); d > 1e-12 {
		t.Errorf("Mean off by %v after merge/Reset rounds", d)
	}
}

// TestSummaryMergeBoundaryShapes covers the raw Summary merge the
// accumulator rides on: empty-into-empty, empty-into-full,
// full-into-empty, and single-sample merges must preserve min/max and
// the exact count.
func TestSummaryMergeBoundaryShapes(t *testing.T) {
	var a, b Summary
	a.Merge(b)
	if a.N() != 0 {
		t.Fatalf("empty.Merge(empty): N = %d", a.N())
	}
	b.Add(4)
	a.Merge(b) // full into empty: copies
	if a.N() != 1 || a.Min() != 4 || a.Max() != 4 {
		t.Fatalf("empty.Merge({4}) = n%d [%v,%v]", a.N(), a.Min(), a.Max())
	}
	var c Summary
	a.Merge(c) // empty into full: identity
	if a.N() != 1 || a.Min() != 4 || a.Max() != 4 {
		t.Fatalf("identity merge broke summary: n%d [%v,%v]", a.N(), a.Min(), a.Max())
	}
	var d Summary
	d.Add(-2)
	a.Merge(d)
	if a.N() != 2 || a.Min() != -2 || a.Max() != 4 || a.Mean() != 1 {
		t.Fatalf("single-sample merge: n%d [%v,%v] mean %v", a.N(), a.Min(), a.Max(), a.Mean())
	}
}
