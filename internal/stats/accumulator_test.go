package stats

import (
	"math"
	"sort"
	"testing"
)

func TestAccumulatorMomentsAndMax(t *testing.T) {
	obs := []int{3, 0, 7, 7, 2, 9, 1, 4, 4, 4}
	a := NewAccumulator(16)
	var want Summary
	for _, v := range obs {
		a.Observe(v)
		want.Add(float64(v))
	}
	if a.N() != len(obs) {
		t.Fatalf("N = %d, want %d", a.N(), len(obs))
	}
	if a.Mean() != want.Mean() || a.Std() != want.Std() {
		t.Fatalf("moments %v/%v, want %v/%v", a.Mean(), a.Std(), want.Mean(), want.Std())
	}
	if a.Max() != 9 {
		t.Fatalf("Max = %d, want 9", a.Max())
	}
}

func TestAccumulatorQuantileMatchesSort(t *testing.T) {
	obs := []int{5, 1, 1, 3, 8, 2, 2, 2, 6, 0, 9, 9}
	a := NewAccumulator(32)
	for _, v := range obs {
		a.Observe(v)
	}
	sorted := append([]int(nil), obs...)
	sort.Ints(sorted)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		idx := int(math.Ceil(q*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		if got := a.Quantile(q); got != sorted[idx] {
			t.Fatalf("Quantile(%v) = %d, want %d", q, got, sorted[idx])
		}
	}
}

func TestAccumulatorClampsBeyondBound(t *testing.T) {
	a := NewAccumulator(4)
	for _, v := range []int{1, 100, 200} {
		a.Observe(v)
	}
	// Exact stats see the true values; the histogram clamps.
	if a.Max() != 200 {
		t.Fatalf("Max = %d, want 200", a.Max())
	}
	if got := a.Quantile(1); got != 4 {
		t.Fatalf("clamped Quantile(1) = %d, want top bucket 4", got)
	}
}

func TestAccumulatorResetAndZeroAllocs(t *testing.T) {
	a := NewAccumulator(64)
	if n := testing.AllocsPerRun(20, func() {
		a.Reset()
		for v := 0; v < 100; v++ {
			a.Observe(v % 9)
		}
		_ = a.Quantile(0.99)
	}); n != 0 {
		t.Fatalf("steady-state observe/reset allocates %.1f/op, want 0", n)
	}
	a.Reset()
	if a.N() != 0 || a.Max() != 0 || a.Quantile(0.5) != 0 {
		t.Fatalf("reset accumulator not empty: n=%d max=%d", a.N(), a.Max())
	}
}
