package experiments

import (
	"fmt"

	"repro/internal/sim"
)

// churnRates sweeps the migration intensity from the static baseline
// (rate 0 = ChurnNone, the frozen-placement engine) to one migration
// per request.
var churnRates = []float64{0, 0.1, 0.25, 0.5, 1}

// Churn probes the §VI dynamic regime through the churn engine: caches
// migrate replicas mid-trial (uniformly, or chasing a drifting
// popularity) while Strategy II keeps assigning requests against the
// live placement. Static vs dynamic load curves: the x axis is the
// migration rate (expected events per request), the rate-0 point is the
// static ChurnNone engine. Migrations splice the placement and its tile
// index incrementally between pipeline chunks.
//
// Expected shape: because migrations preserve every |S_j| (the
// placement profile never decays, only replica geography moves), the
// max-load curves stay near the static baseline — the two-choices
// process is robust to placement churn, the paper's implicit premise
// for deferring dynamics to future work. The cost curve drifts with the
// geography instead.
func Churn(opt Options) (*Table, error) {
	const (
		side   = 25 // n = 625, 8+ pipeline chunks per trial
		k      = 2000
		m      = 4
		radius = 6
	)
	trials := opt.trials(6, 400)
	t := &Table{
		ID:     "churn",
		Title:  "Dynamic re-placement: max load vs churn rate (n=625, K=2000, M=4, two-choices r=6)",
		XLabel: "churn rate (migrations/request)",
		YLabel: "max load",
		Notes: []string{
			fmt.Sprintf("trials/point = %d; %d requests per trial (8 pipeline chunks)", trials, 8*1024),
			"rate 0 is the static ChurnNone engine; higher rates migrate replicas mid-trial via incremental Placement/TileIndex splices",
			"replicas: uniform replica migration; drift: migrations chase a shot-noise popularity drifter",
			"|S_j| is invariant under migration, so load stays near the static curve while mean cost drifts with replica geography",
		},
	}
	series := []struct {
		name  string
		churn sim.ChurnMode
	}{
		{"replicas", sim.ChurnReplicas},
		{"drift", sim.ChurnDrift},
	}
	var cfgs []sim.Config
	for _, s := range series {
		for _, rate := range churnRates {
			cfg := sim.Config{
				Side: side, K: k, M: m,
				Popularity: sim.PopSpec{Kind: sim.PopZipf, Gamma: 0.8},
				Strategy:   sim.StrategySpec{Kind: sim.TwoChoices, Radius: radius},
				Requests:   8 * 1024,
				// The offset derives from the churn mode alone, so a
				// series' seed does not depend on which others are listed.
				Seed: opt.seed() + uint64(17*int(s.churn)+3),
			}
			if rate > 0 {
				cfg.Churn = s.churn
				cfg.ChurnRate = rate
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
		for j, rate := range churnRates {
			agg := aggs[i*len(churnRates)+j]
			sr.Points = append(sr.Points, Point{
				X: rate, Y: agg.MaxLoad.Mean(), CI: agg.MaxLoad.CI95(),
				Extra: map[string]float64{
					"cost":          agg.MeanCost.Mean(),
					"churn_events":  agg.ChurnEvents.Mean(),
					"churn_skipped": agg.ChurnSkipped.Mean(),
				},
			})
		}
		t.Series = append(t.Series, sr)
	}
	return t, nil
}
