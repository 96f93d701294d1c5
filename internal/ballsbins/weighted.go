package ballsbins

import "fmt"

// loadReader is the read side of a load vector — structurally identical
// to core.LoadReader (declared locally to keep this leaf package free of
// engine imports), so a WeightedLoads satisfies the strategies' reader
// interface wherever a Loads or AtomicLoads does.
type loadReader interface {
	Load(i int) int
}

// WeightedLoads presents a capacity-normalized view of an underlying
// load vector: Load(u) returns inner.Load(u)·mult[u], where mult[u] is a
// per-node multiplier inversely proportional to node u's service
// capacity C_u. Comparing weighted loads is comparing load/C_u — the
// heterogeneous two-choices rule — without leaving integer arithmetic:
// the engine scales every multiplier by a common factor (LCM of the
// capacity range) so the division never rounds. Writes stay on the raw
// inner vector (the wrapper has no Add); only the comparison view is
// weighted, so MaxLoad and the per-trial accounting keep reporting raw
// request counts.
//
// The zero WeightedLoads is empty; Bind installs the view in place so
// per-trial rebinding allocates nothing.
type WeightedLoads struct {
	inner loadReader
	mult  []int32
}

// NewWeightedLoads returns a weighted view of inner under mult.
func NewWeightedLoads(inner loadReader, mult []int32) *WeightedLoads {
	w := &WeightedLoads{}
	w.Bind(inner, mult)
	return w
}

// Bind installs (inner, mult) as the wrapped vector and multipliers,
// reusing the receiver. Every multiplier must be positive.
func (w *WeightedLoads) Bind(inner loadReader, mult []int32) {
	if inner == nil {
		panic("ballsbins: WeightedLoads needs an inner load vector")
	}
	for i, m := range mult {
		if m <= 0 {
			panic(fmt.Sprintf("ballsbins: WeightedLoads multiplier %d for bin %d must be positive", m, i))
		}
	}
	w.inner = inner
	w.mult = mult
}

// Load returns the capacity-weighted load of bin i.
func (w *WeightedLoads) Load(i int) int { return w.inner.Load(i) * int(w.mult[i]) }
