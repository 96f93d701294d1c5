// Package xrand provides deterministic, splittable random number streams
// for parallel simulation. Every trial of an experiment receives its own
// PCG stream derived from a root seed by SplitMix64 mixing, so results are
// bit-reproducible regardless of how trials are scheduled across workers.
package xrand

import (
	"math/rand/v2"
)

// splitMix64 advances and mixes a 64-bit state (Steele et al., the standard
// seed-expansion finalizer). It is used only to derive independent stream
// seeds, never as the simulation generator itself.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic seed from which independent streams are split.
type Source struct {
	seed uint64
}

// NewSource returns a Source rooted at seed.
func NewSource(seed uint64) Source { return Source{seed: seed} }

// Stream returns the i-th independent generator of this source. Streams
// with distinct (seed, i) pairs are statistically independent PCG
// instances; calling Stream(i) twice yields identical sequences.
func (s Source) Stream(i uint64) *rand.Rand {
	s1, s2 := s.StreamSeed(i)
	return rand.New(rand.NewPCG(s1, s2))
}

// StreamSeed returns the PCG seed pair of the i-th stream:
// Stream(i) ≡ rand.New(rand.NewPCG(StreamSeed(i))). Callers that hold a
// long-lived generator (the simulation engine's per-worker runners) reseed
// a reused PCG in place with it, making per-trial stream derivation
// allocation-free while producing bit-identical sequences.
func (s Source) StreamSeed(i uint64) (uint64, uint64) {
	st := s.seed
	a := splitMix64(&st)
	st ^= i * 0x9e3779b97f4a7c15
	b := splitMix64(&st)
	st ^= 0xd1342543de82ef95
	c := splitMix64(&st)
	return a ^ c, b + i
}

// Split returns a child source for namespacing (e.g. one per experiment
// stage) so that adding streams to one stage never perturbs another.
func (s Source) Split(label uint64) Source {
	st := s.seed ^ (label * 0xbf58476d1ce4e5b9)
	return Source{seed: splitMix64(&st)}
}
