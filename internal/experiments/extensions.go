package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/sim"
)

// PlacementPolicies compares cache placement rules (proportional — the
// paper's model — versus square-root, uniform and capped) under a Zipf
// catalog, measuring the max load and cost of Strategy II. Proportional
// placement equalizes demand per replica (LoadSkew = 1) and is therefore
// the load-optimal rule — this experiment quantifies how much worse the
// popularity-blind alternatives are, and what they buy back in tail
// coverage (fewer uncached files).
func PlacementPolicies(opt Options) (*Table, error) {
	trials := opt.trials(10, 1000)
	t := &Table{
		ID:     "placement",
		Title:  "Placement policies under Zipf(1.2): Strategy II load and cost (n=2025, K=500, M=4)",
		XLabel: "radius",
		YLabel: "max load",
		Notes: []string{
			fmt.Sprintf("trials/point = %d", trials),
			"expected: proportional lowest max load (per-replica demand skew 1); uniform worst (head replicas overwhelmed); sqrt/capped in between, with better tail coverage (lower uncached counts)",
		},
	}
	for _, pol := range []replication.Policy{
		replication.Proportional, replication.SquareRoot,
		replication.UniformPlace, replication.Capped,
	} {
		s := Series{Name: pol.String()}
		for _, r := range []int{4, 8, 16, 32} {
			cfg := sim.Config{
				Side: 45, K: 500, M: 4,
				Popularity:      sim.PopSpec{Kind: sim.PopZipf, Gamma: 1.2},
				PlacementPolicy: pol,
				Strategy:        sim.StrategySpec{Kind: sim.TwoChoices, Radius: r},
				Seed:            opt.seed() + uint64(int(pol)*100+r),
			}
			agg, err := sim.Run(cfg, trials, opt.Workers)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{
				X: float64(r), Y: agg.MaxLoad.Mean(), CI: agg.MaxLoad.CI95(),
				Extra: map[string]float64{
					"cost":      agg.MeanCost.Mean(),
					"escalated": agg.Escalated.Mean(),
					"uncached":  agg.Uncached.Mean(),
				},
			})
		}
		t.Series = append(t.Series, s)
	}
	return t, nil
}

// LinkCongestion routes every delivery hop-by-hop and compares wire-level
// congestion across strategies: nearest replica minimizes total traffic;
// unbounded two-choices floods long paths; radius-r two-choices sits in
// between — the second face of the paper's proximity/balance trade-off.
func LinkCongestion(opt Options) (*Table, error) {
	trials := opt.trials(8, 500)
	t := &Table{
		ID:     "linkload",
		Title:  "Link-level congestion by strategy (n=2025, K=500, M=10, XY routing)",
		XLabel: "strategy_index",
		YLabel: "max link load",
		Notes: []string{
			fmt.Sprintf("trials/point = %d", trials),
			"series are strategies; x enumerates them; extras carry congestion factor (max/mean link load) and server max load",
		},
	}
	specs := []struct {
		name string
		s    sim.StrategySpec
	}{
		{"nearest", sim.StrategySpec{Kind: sim.Nearest}},
		{"two-choices r=8", sim.StrategySpec{Kind: sim.TwoChoices, Radius: 8}},
		{"two-choices r=inf", sim.StrategySpec{Kind: sim.TwoChoices, Radius: core.RadiusUnbounded}},
	}
	for i, sp := range specs {
		cfg := sim.Config{
			Side: 45, K: 500, M: 10,
			Strategy: sp.s,
			Metrics:  sim.MetricsLinks,
			Seed:     opt.seed() + uint64(i),
		}
		agg, err := sim.Run(cfg, trials, opt.Workers)
		if err != nil {
			return nil, err
		}
		t.Series = append(t.Series, Series{Name: sp.name, Points: []Point{{
			X: float64(i), Y: agg.MaxLinkLoad.Mean(), CI: agg.MaxLinkLoad.CI95(),
			Extra: map[string]float64{
				"congestion_factor": agg.LinkCongestion.Mean(),
				"server_max_load":   agg.MaxLoad.Mean(),
				"mean_cost":         agg.MeanCost.Mean(),
			},
		}}})
	}
	return t, nil
}

// HeavyLoad probes the heavily loaded case (Berenbrink et al., cited as
// [9]): with m = c·n requests the two-choice gap m/n + O(log log n) stays
// bounded while one-choice grows like √(m log n / n). We sweep c and
// report max load minus the average load m/n.
func HeavyLoad(opt Options) (*Table, error) {
	trials := opt.trials(10, 1000)
	t := &Table{
		ID:     "heavyload",
		Title:  "Heavily loaded case: max load − m/n vs request multiplier (n=1024, K=200, M=10, r=inf)",
		XLabel: "c (requests = c·n)",
		YLabel: "max load − m/n",
		Notes: []string{
			fmt.Sprintf("trials/point = %d", trials),
			"expected: two-choices gap stays O(log log n) — essentially flat in c; one-choice gap grows like √c (Berenbrink et al.)",
		},
	}
	n := 32 * 32
	for _, spec := range []struct {
		name string
		kind sim.StrategyKind
	}{
		{"two-choices", sim.TwoChoices},
		{"one-choice", sim.OneChoiceRandom},
	} {
		s := Series{Name: spec.name}
		for _, c := range []int{1, 2, 4, 8, 16} {
			cfg := sim.Config{
				Side: 32, K: 200, M: 10,
				Requests: c * n,
				Strategy: sim.StrategySpec{Kind: spec.kind, Radius: core.RadiusUnbounded},
				Seed:     opt.seed() + uint64(c),
			}
			agg, err := sim.Run(cfg, trials, opt.Workers)
			if err != nil {
				return nil, err
			}
			gap := agg.MaxLoad.Mean() - float64(c)
			s.Points = append(s.Points, Point{
				X: float64(c), Y: gap, CI: agg.MaxLoad.CI95(),
				Extra: map[string]float64{"max_load": agg.MaxLoad.Mean()},
			})
		}
		t.Series = append(t.Series, s)
	}
	return t, nil
}

// BetaChoice sweeps the (1+β)-choice mixing parameter: β = 0 is the
// one-choice baseline, β = 1 full two-choices. The bulk of the balancing
// benefit arrives well before β = 1, so probing traffic can be halved at
// modest load cost — a practical knob the paper's scheme admits directly.
func BetaChoice(opt Options) (*Table, error) {
	trials := opt.trials(12, 1000)
	t := &Table{
		ID:     "beta-choice",
		Title:  "(1+β)-choice: max load vs β (n=2025, K=500, M=10, r=8)",
		XLabel: "beta",
		YLabel: "max load",
		Notes: []string{
			fmt.Sprintf("trials/point = %d", trials),
			"expected: monotone decreasing, steep at small β, flat near 1 (diminishing returns of probe traffic)",
		},
	}
	s := Series{Name: "two-choices(beta)"}
	for _, beta := range []float64{0.001, 0.25, 0.5, 0.75, 0.999} {
		cfg := sim.Config{
			Side: 45, K: 500, M: 10,
			Strategy: sim.StrategySpec{Kind: sim.TwoChoices, Radius: 8, Beta: beta},
			Seed:     opt.seed() + uint64(beta*1000),
		}
		agg, err := sim.Run(cfg, trials, opt.Workers)
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, Point{
			X: beta, Y: agg.MaxLoad.Mean(), CI: agg.MaxLoad.CI95(),
			Extra: map[string]float64{"cost": agg.MeanCost.Mean()},
		})
	}
	t.Series = append(t.Series, s)
	return t, nil
}
