// Package stats provides the summary statistics, histograms and
// shape-fitting helpers the experiment harness uses to compare measured
// curves against the paper's asymptotic predictions (log n, log log n,
// √(K/M), Θ(r), ...).
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Summary holds streaming moments of a sample (Welford's algorithm), so
// trial results can be folded in one at a time without storing them all.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Merge folds another summary into s (parallel reduction). Min/max and
// moments combine exactly (Chan et al. pairwise update).
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n1, n2 := float64(s.n), float64(o.n)
	d := o.mean - s.mean
	tot := n1 + n2
	s.mean += d * n2 / tot
	s.m2 += o.m2 + d*d*n1*n2/tot
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// summaryWire is the JSON shape of a Summary. The moments travel as raw
// float64 values: encoding/json emits the shortest representation that
// round-trips exactly, so a marshal/unmarshal cycle is bit-faithful —
// the property the sweep coordinator's merge relies on to keep
// distributed artifacts byte-identical to single-host runs.
type summaryWire struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// MarshalJSON implements json.Marshaler, exposing the streaming moments.
func (s Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(summaryWire{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max})
}

// UnmarshalJSON implements json.Unmarshaler; it restores the exact
// moments written by MarshalJSON.
func (s *Summary) UnmarshalJSON(b []byte) error {
	var w summaryWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if w.N < 0 {
		return fmt.Errorf("stats: summary with negative n %d", w.N)
	}
	*s = Summary{n: w.N, mean: w.Mean, m2: w.M2, min: w.Min, max: w.Max}
	return nil
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 if empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 if empty).
func (s *Summary) Max() float64 { return s.max }

// SE returns the standard error of the mean.
func (s *Summary) SE() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval for the mean.
func (s *Summary) CI95() float64 { return 1.96 * s.SE() }

// String renders "mean ± ci95 (n=...)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean(), s.CI95(), s.N())
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the data using the
// nearest-rank method. It sorts a copy; intended for end-of-run reporting.
func Quantile(data []float64, q float64) float64 {
	if len(data) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), data...)
	sort.Float64s(c)
	if q <= 0 {
		return c[0]
	}
	if q >= 1 {
		return c[len(c)-1]
	}
	idx := int(math.Ceil(q*float64(len(c)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c[idx]
}

// LinearFit computes the least-squares line y = a + b·x and the Pearson
// correlation r² over paired samples. It panics on mismatched or empty
// input (programming error in the harness, not data).
func LinearFit(xs, ys []float64) (a, b, r2 float64) {
	if len(xs) != len(ys) || len(xs) == 0 {
		panic(fmt.Sprintf("stats: LinearFit needs matched non-empty slices, got %d/%d", len(xs), len(ys)))
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return my, 0, 0
	}
	b = sxy / sxx
	a = my - b*mx
	if syy == 0 {
		return a, b, 1
	}
	r2 = sxy * sxy / (sxx * syy)
	return a, b, r2
}

// FitAgainst regresses ys against shape(xs): returns the fit of
// y = a + b·shape(x) plus r². Use it to test, e.g., max load vs log n
// (Theorem 1) or vs log log n (Theorem 4).
func FitAgainst(xs, ys []float64, shape func(float64) float64) (a, b, r2 float64) {
	tx := make([]float64, len(xs))
	for i, x := range xs {
		tx[i] = shape(x)
	}
	return LinearFit(tx, ys)
}

// Shapes used throughout the experiment harness.
var (
	// Log is the natural log shape for Θ(log n) laws.
	Log = func(x float64) float64 { return math.Log(x) }
	// LogLog is the iterated log shape for Θ(log log n) laws; it clamps
	// below at x = e so small pilot points don't produce -Inf.
	LogLog = func(x float64) float64 {
		l := math.Log(x)
		if l < 1 {
			l = 1
		}
		return math.Log(l)
	}
	// Sqrt is the √x shape for Θ(√(K/M)) communication-cost laws.
	Sqrt = math.Sqrt
	// Identity fits y against x directly.
	Identity = func(x float64) float64 { return x }
)

// GrowthExponent estimates p in y ∝ x^p from the endpoints of a log-log
// regression over all points. Used to verify, e.g., C ∝ K^{1-γ/2} in the
// Theorem 3 Zipf table.
func GrowthExponent(xs, ys []float64) float64 {
	lx := make([]float64, 0, len(xs))
	ly := make([]float64, 0, len(ys))
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	if len(lx) < 2 {
		return math.NaN()
	}
	_, b, _ := LinearFit(lx, ly)
	return b
}

// Histogram is a fixed-width integer histogram for load distributions.
type Histogram struct {
	counts []int64
	total  int64
}

// NewHistogram returns a histogram for values in [0, maxValue].
func NewHistogram(maxValue int) *Histogram {
	return &Histogram{counts: make([]int64, maxValue+1)}
}

// Observe records value v, clamping into range.
func (h *Histogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.counts) {
		v = len(h.counts) - 1
	}
	h.counts[v]++
	h.total++
}

// Merge adds another histogram's mass (sizes must match).
func (h *Histogram) Merge(o *Histogram) {
	if len(h.counts) != len(o.counts) {
		panic("stats: merging histograms of different sizes")
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
}

// Count returns the number of observations equal to v (after clamping).
func (h *Histogram) Count(v int) int64 {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 { return h.total }

// Mean returns the histogram mean.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var s float64
	for v, c := range h.counts {
		s += float64(v) * float64(c)
	}
	return s / float64(h.total)
}

// Accumulator streams integer-valued observations into constant memory:
// Welford moments and running min/max (via Summary) plus a bounded
// clamping histogram for quantiles. It is the unmaterialized-metrics
// building block of the simulation engine's streaming mode — a trial folds
// every delivery (and every node's final load) into one of these instead
// of materializing O(n) metric vectors, so memory stays flat as worlds
// grow to 10⁶ nodes. Reset reuses the histogram arena, so steady-state
// observation and reset are allocation-free.
type Accumulator struct {
	sum  Summary
	hist []int64 // counts for values 0..len-1; the top bucket clamps
}

// NewAccumulator returns an accumulator whose histogram resolves values in
// [0, bound]; larger observations clamp into the top bucket (they still
// enter the exact moments and max). It panics if bound < 0.
func NewAccumulator(bound int) *Accumulator {
	if bound < 0 {
		panic(fmt.Sprintf("stats: NewAccumulator needs bound >= 0, got %d", bound))
	}
	return &Accumulator{hist: make([]int64, bound+1)}
}

// Reset clears the accumulator for a new trial without reallocating.
func (a *Accumulator) Reset() {
	a.sum = Summary{}
	clear(a.hist)
}

// Observe folds one non-negative observation in.
func (a *Accumulator) Observe(v int) {
	a.sum.Add(float64(v))
	if v < 0 {
		v = 0
	}
	if v >= len(a.hist) {
		v = len(a.hist) - 1
	}
	a.hist[v]++
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.sum.N() }

// Mean returns the exact mean of all observations.
func (a *Accumulator) Mean() float64 { return a.sum.Mean() }

// Std returns the exact sample standard deviation of all observations.
func (a *Accumulator) Std() float64 { return a.sum.Std() }

// Max returns the exact largest observation (0 when empty).
func (a *Accumulator) Max() int { return int(a.sum.Max()) }

// Quantile returns the smallest histogram value v such that at least a
// q-fraction of the observations are ≤ v (nearest-rank on the bounded
// histogram; observations beyond the bound clamp into the top bucket). It
// returns 0 for an empty accumulator.
func (a *Accumulator) Quantile(q float64) int {
	n := int64(a.sum.N())
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for v, c := range a.hist {
		cum += c
		if cum >= rank {
			return v
		}
	}
	return len(a.hist) - 1
}

// Tail returns the fraction of observations ≥ v.
func (h *Histogram) Tail(v int) float64 {
	if h.total == 0 {
		return 0
	}
	var s int64
	for i := v; i < len(h.counts); i++ {
		if i >= 0 {
			s += h.counts[i]
		}
	}
	return float64(s) / float64(h.total)
}
