package stats

import (
	"math/rand/v2"
	"testing"
)

// These tests pin the boundary shapes of Accumulator.Reset, which a
// Runner calls on its streaming accumulators every trial, and of
// Summary.Merge, with which Aggregate.Merge reduces trial summaries.

// TestAccumulatorResetBetweenMergeRounds models a Runner's accumulators
// across trials: one accumulator is fed a round of observations, checked
// against a fresh one fed the same, and Reset, round after round. Each
// round it must behave as if freshly constructed — no residue in the
// moments, the max, or the histogram (including the clamp bucket).
func TestAccumulatorResetBetweenMergeRounds(t *testing.T) {
	const bound = 4
	rng := rand.New(rand.NewPCG(1, 2))
	reused := NewAccumulator(bound)
	for round := 0; round < 10; round++ {
		fresh := NewAccumulator(bound)
		// Some rounds are empty; values straddle the clamp bound.
		for range rng.IntN(6) {
			v := rng.IntN(2 * bound)
			reused.Observe(v)
			fresh.Observe(v)
		}
		if reused.N() != fresh.N() || reused.Max() != fresh.Max() ||
			reused.Mean() != fresh.Mean() || reused.Std() != fresh.Std() {
			t.Fatalf("round %d: N/Max/Mean/Std = %d/%d/%v/%v, fresh %d/%d/%v/%v", round,
				reused.N(), reused.Max(), reused.Mean(), reused.Std(), fresh.N(), fresh.Max(), fresh.Mean(), fresh.Std())
		}
		for _, q := range []float64{0.1, 0.5, 0.9, 1} {
			if reused.Quantile(q) != fresh.Quantile(q) {
				t.Errorf("round %d q=%v: %d, fresh %d", round, q, reused.Quantile(q), fresh.Quantile(q))
			}
		}
		reused.Reset()
		if reused.N() != 0 || reused.Max() != 0 || reused.Quantile(1) != 0 {
			t.Fatalf("round %d: Reset left residue: N=%d Max=%d", round, reused.N(), reused.Max())
		}
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
