package experiments

import (
	"fmt"

	"repro/internal/sim"
)

// wideGridSides spans the quick preset (CI-sized pilot worlds) and the
// paper preset, which pushes past the paper's largest simulated network
// (n = 1.2·10⁵) to a million servers.
var (
	wideGridSidesQuick = []int{40, 70}
	wideGridSidesPaper = []int{316, 550, 1000}
)

// WideGrid is the beyond-the-paper scaling sweep: Strategy I vs
// Strategy II on tori up to Side = 1000 (n = 10⁶ servers, 10⁶ requests
// per trial), runnable at flat memory because every trial uses the
// streaming metrics mode (constant-memory hop/load accumulators, no O(n)
// metric vectors) over the batched, allocation-free request loop.
// Reported per point: max
// load, mean cost, and the streaming extras (hop max/std, 99th-percentile
// node load).
func WideGrid(opt Options) (*Table, error) {
	sides := wideGridSidesQuick
	if opt.Preset == Paper {
		sides = wideGridSidesPaper
	}
	trials := opt.trials(4, 25)
	t := &Table{
		ID:     "widegrid",
		Title:  "Wide worlds: Strategy I vs II up to n=10⁶ (streaming metrics, K=10⁴, M=10)",
		XLabel: "n",
		YLabel: "max load",
		Notes: []string{
			fmt.Sprintf("trials/point = %d; preset %s sides %v", trials, opt.Preset, sides),
			"batched request generation + streaming metrics: request path allocates nothing, no O(n) metric vector is materialized",
			"tile-bucketed spatial replica index: S_j ∩ B_r(u) enumerated per covered tile, making the Side=1000 two-choices trial sub-second",
			"expected shape: Strategy I grows with log n; Strategy II stays near log log n at cost Θ(r)",
		},
	}
	kinds := []struct {
		name string
		kind sim.StrategyKind
	}{
		{"strategy I (nearest)", sim.Nearest},
		{"strategy II (two choices)", sim.TwoChoices},
	}
	var cfgs []sim.Config
	for _, k := range kinds {
		for _, side := range sides {
			cfgs = append(cfgs, sim.Config{
				Side: side, K: 10000, M: 10,
				Strategy: sim.StrategySpec{Kind: k.kind, Radius: wideGridRadius(side)},
				Metrics:  sim.MetricsStreaming,
				Seed:     opt.seed() + uint64(1000*int(k.kind)+side),
			})
		}
	}
	aggs, err := runGrid(cfgs, trials, opt)
	if err != nil {
		return nil, err
	}
	for i, k := range kinds {
		s := Series{Name: k.name}
		for j, side := range sides {
			agg := aggs[i*len(sides)+j]
			s.Points = append(s.Points, Point{
				X: float64(side * side), Y: agg.MaxLoad.Mean(), CI: agg.MaxLoad.CI95(),
				Extra: map[string]float64{
					"cost":    agg.MeanCost.Mean(),
					"hopmax":  agg.HopMax.Mean(),
					"hopstd":  agg.HopStd.Mean(),
					"loadp99": agg.LoadP99.Mean(),
					"radius":  float64(wideGridRadius(side)),
				},
			})
		}
		t.Series = append(t.Series, s)
	}
	return t, nil
}

// wideGridRadius scales Strategy II's proximity constraint like n^β with
// the world (r = Side/25, floored at 8), keeping the Theorem 4 regime
// α + 2β ≥ 1 as the sweep widens. Strategy I ignores it.
func wideGridRadius(side int) int {
	return max(8, side/25)
}
