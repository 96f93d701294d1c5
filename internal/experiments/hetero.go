package experiments

import (
	"fmt"

	"repro/internal/sim"
)

// heteroProfiles sweeps capacity skew from the degenerate uniform
// profile (bit-identical to the homogeneous engine) through the
// two-tier split to the heavy-tailed power law.
var heteroProfiles = []struct {
	name    string
	profile sim.CacheProfile
}{
	{"uniform", sim.ProfileUniform},
	{"two-tier", sim.ProfileTwoTier},
	{"power-law", sim.ProfilePowerLaw},
}

// Hetero probes the heterogeneous-node extension: per-node cache sizes
// M_u drawn from a profile on the dedicated namespace-8 stream, service
// capacities C_u weighting the two-choices load comparison, and (in the
// arrival regime) ~25% of nodes starting vacant and joining mid-trial
// at chunk barriers. The x axis is the profile index (0 = uniform,
// 1 = two-tier, 2 = power-law); x=0 under HeteroCapacity is draw-for-
// draw identical to the homogeneous engine the golden table freezes.
// Y is the max load over all nodes; cost, backhaul and — for the
// arrival series — the join/vacancy counters ride along as extras.
//
// Expected shape: raw max load GROWS with skew under every strategy —
// by design. Big nodes hold more replicas and the weighted comparison
// deliberately routes extra load to them (it equalizes load/C_u, not
// raw load), so the raw maximum concentrates on the high-C_u nodes as
// the profile spreads. The claim worth checking is relative:
// capacity-weighted two-choices stays below nearest at every skew
// level (nearest cannot exploit capacity — it never compares loads),
// and the arrival series pays a penalty over its capacity twin while
// vacant nodes sit out the early chunks and the survivors absorb
// their share.
func Hetero(opt Options) (*Table, error) {
	const (
		side   = 25 // n = 625, 8 pipeline chunks per trial
		k      = 2000
		m      = 4
		radius = 6
		nReq   = 8 * 1024
		arrRt  = 0.02 // ≈ 164 scheduled joins/trial vs ≈ 156 vacant nodes
	)
	trials := opt.trials(6, 400)
	t := &Table{
		ID:     "hetero",
		Title:  "Node heterogeneity: max load vs capacity skew (n=625, K=2000, M=4, r=6)",
		XLabel: "cache-size profile (0=uniform, 1=two-tier, 2=power-law)",
		YLabel: "max load",
		Notes: []string{
			fmt.Sprintf("trials/point = %d; %d requests per trial; profiles draw M_u and C_u on the namespace-8 hetero stream", trials, nReq),
			"profile 0 under the capacity regime is the homogeneous engine (degenerate identity frozen by the golden table)",
			"two-tier: ~25% of nodes get (2M, C=2), the rest (2M/3, C=1); power-law: Pareto(α=1.5) sizes clamped to [1, 8M], C_u ∝ M_u",
			fmt.Sprintf("arrival series: ~25%% of nodes start vacant and join at chunk barriers (ArrivalRate %g, namespace-8 credit schedule)", arrRt),
			"extras: cost, backhaul requests/trial; arrivals and vacant (trial end) on the arrival series",
		},
	}
	series := []struct {
		name   string
		strat  sim.StrategySpec
		hetero sim.HeteroMode
	}{
		{"two-choices/capacity", sim.StrategySpec{Kind: sim.TwoChoices, Radius: radius}, sim.HeteroCapacity},
		{"nearest/capacity", sim.StrategySpec{Kind: sim.Nearest}, sim.HeteroCapacity},
		{"two-choices/arrival", sim.StrategySpec{Kind: sim.TwoChoices, Radius: radius}, sim.HeteroArrival},
	}
	var cfgs []sim.Config
	for _, s := range series {
		for _, p := range heteroProfiles {
			cfg := sim.Config{
				Side: side, K: k, M: m,
				Popularity: sim.PopSpec{Kind: sim.PopZipf, Gamma: 0.8},
				Strategy:   s.strat,
				Requests:   nReq,
				MissPolicy: sim.MissEscalate,
				Hetero:     s.hetero,
				Profile:    p.profile,
				Seed:       opt.seed() + uint64(31*int(s.hetero)+5*int(s.strat.Kind)),
			}
			if s.hetero == sim.HeteroArrival {
				cfg.ArrivalRate = arrRt
			}
			cfgs = append(cfgs, cfg)
		}
	}
	aggs, err := runGrid(cfgs, trials, opt)
	if err != nil {
		return nil, err
	}
	for i, s := range series {
		sr := Series{Name: s.name}
		for j := range heteroProfiles {
			agg := aggs[i*len(heteroProfiles)+j]
			extra := map[string]float64{
				"cost":     agg.MeanCost.Mean(),
				"backhaul": agg.Backhaul.Mean() * float64(nReq),
			}
			if s.hetero == sim.HeteroArrival {
				extra["arrivals"] = agg.ArrivalEvents.Mean()
				extra["vacant"] = agg.Vacant.Mean()
			}
			sr.Points = append(sr.Points, Point{
				X: float64(j), Y: agg.MaxLoad.Mean(), CI: agg.MaxLoad.CI95(),
				Extra: extra,
			})
		}
		t.Series = append(t.Series, sr)
	}
	return t, nil
}
