package xrand

import (
	"math"
	"testing"
)

func TestStreamDeterminism(t *testing.T) {
	s := NewSource(42)
	a := s.Stream(7)
	b := s.Stream(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same (seed, stream) produced different sequences at step %d", i)
		}
	}
}

func TestStreamsDiffer(t *testing.T) {
	s := NewSource(42)
	a := s.Stream(1)
	b := s.Stream(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("streams 1 and 2 collide in %d/64 draws", same)
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := NewSource(1).Stream(0)
	b := NewSource(2).Stream(0)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSplitNamespacing(t *testing.T) {
	root := NewSource(99)
	c1 := root.Split(1)
	c2 := root.Split(2)
	if c1.Stream(0).Uint64() == c2.Stream(0).Uint64() {
		t.Fatal("split children share stream 0 output")
	}
	// Split is deterministic.
	if c1.Stream(3).Uint64() != root.Split(1).Stream(3).Uint64() {
		t.Fatal("Split not deterministic")
	}
}

func TestStreamUniformity(t *testing.T) {
	// Coarse frequency check: 10 buckets over 100k draws should each hold
	// 10% ± 1.5%.
	r := NewSource(7).Stream(0)
	const draws = 100000
	var buckets [10]int
	for i := 0; i < draws; i++ {
		buckets[r.IntN(10)]++
	}
	for i, c := range buckets {
		frac := float64(c) / draws
		if math.Abs(frac-0.1) > 0.015 {
			t.Errorf("bucket %d frequency %.4f, want 0.1 ± 0.015", i, frac)
		}
	}
}

func BenchmarkStreamCreation(b *testing.B) {
	s := NewSource(1)
	for i := 0; i < b.N; i++ {
		_ = s.Stream(uint64(i))
	}
}
