package experiments

import (
	"fmt"

	"repro/internal/sim"
)

// faultFractions sweeps the expected failed fraction of the network from
// the all-live baseline (FaultsNone, the golden-pinned engine) to half
// the servers crashing over a trial with no recovery.
var faultFractions = []float64{0, 0.1, 0.25, 0.5}

// Faults probes robustness under node failure through the fault engine:
// servers crash mid-trial (uniformly, or by whole tile-aligned regions)
// with no recovery, the strategies mask dead nodes through the
// graceful-degradation ladder, and the surviving network keeps serving.
// The x axis is the expected failed fraction at trial end (FaultRate is
// scaled so frac·n crash events accrue over the trial); the fraction-0
// point is the FaultsNone engine the golden table freezes. Y is the
// max load over ALL nodes; availability, degraded-path mass (retried),
// dead population and backhaul volume ride along as extras.
//
// Expected shape: two-choices degrades gracefully — availability falls
// roughly linearly with the failed fraction (a dead fraction φ removes
// ≈ φ of the replicas, and only fully dead replica sets force backhaul)
// while max load grows modestly as the surviving nodes absorb the
// traffic. Regional failures hit harder at equal fractions: killing
// contiguous r-balls wipes whole neighborhoods of candidates, pushing
// more requests onto escalation and backhaul than independent crashes
// do.
func Faults(opt Options) (*Table, error) {
	const (
		side   = 25 // n = 625, 8 pipeline chunks per trial
		k      = 2000
		m      = 4
		radius = 6
		nReq   = 8 * 1024
	)
	trials := opt.trials(6, 400)
	t := &Table{
		ID:     "faults",
		Title:  "Node fault injection: max load and availability vs failed fraction (n=625, K=2000, M=4, r=6)",
		XLabel: "expected failed fraction at trial end",
		YLabel: "max load",
		Notes: []string{
			fmt.Sprintf("trials/point = %d; %d requests per trial; FaultRate = frac·n/requests, RecoverRate = 0 (permanent crashes)", trials, nReq),
			"fraction 0 is the FaultsNone engine (frozen by the golden table); higher fractions crash nodes at chunk barriers via the namespace-7 fault stream",
			"crash: independent uniform node failures; regional: whole tile-aligned failure domains (regionSize geometry)",
			"strategies reject dead candidates and walk the degradation ladder: live-pool retry, escalation to r=∞ over live replicas, backhaul at the origin",
			"extras: availability = in-network served fraction; retried = degraded-path requests/trial; dead_nodes at trial end; backhaul requests/trial",
		},
	}
	series := []struct {
		name   string
		strat  sim.StrategySpec
		faults sim.FaultsMode
	}{
		{"two-choices/crash", sim.StrategySpec{Kind: sim.TwoChoices, Radius: radius}, sim.FaultsCrash},
		{"two-choices/regional", sim.StrategySpec{Kind: sim.TwoChoices, Radius: radius}, sim.FaultsRegional},
		{"nearest/crash", sim.StrategySpec{Kind: sim.Nearest}, sim.FaultsCrash},
	}
	n := float64(side * side)
	var cfgs []sim.Config
	for _, s := range series {
		for _, frac := range faultFractions {
			cfg := sim.Config{
				Side: side, K: k, M: m,
				Popularity: sim.PopSpec{Kind: sim.PopZipf, Gamma: 0.8},
				Strategy:   s.strat,
				Requests:   nReq,
				MissPolicy: sim.MissEscalate,
				Seed:       opt.seed() + uint64(23*int(s.faults)+5*int(s.strat.Kind)),
			}
			if frac > 0 {
				cfg.Faults = s.faults
				// Scale the event rate so ≈ frac·n nodes crash over the
				// trial: a regional event kills a whole failure domain, so
				// its rate divides by the per-event blast radius.
				cfg.FaultRate = frac * n / float64(nReq)
				if s.faults == sim.FaultsRegional {
					cfg.FaultRate /= float64(sim.RegionNodes(side))
				}
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
		for j, frac := range faultFractions {
			agg := aggs[i*len(faultFractions)+j]
			// The fraction-0 baseline runs FaultsNone, whose Results carry
			// no fault metrics: availability there is still 1 − backhaul
			// (uncached files backhaul even with every node live).
			extra := map[string]float64{
				"cost":         agg.MeanCost.Mean(),
				"availability": 1 - agg.Backhaul.Mean(),
				"retried":      0,
				"dead_nodes":   0,
				"backhaul":     agg.Backhaul.Mean() * float64(nReq),
			}
			if frac > 0 {
				extra["availability"] = agg.Availability.Mean()
				extra["retried"] = agg.Retried.Mean() * float64(nReq)
				extra["dead_nodes"] = agg.DeadNodes.Mean()
			}
			sr.Points = append(sr.Points, Point{
				X: frac, Y: agg.MaxLoad.Mean(), CI: agg.MaxLoad.CI95(),
				Extra: extra,
			})
		}
		t.Series = append(t.Series, sr)
	}
	return t, nil
}
