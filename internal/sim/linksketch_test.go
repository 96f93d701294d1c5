package sim

import "testing"

// TestLinkMaxApproxBracketsExact verifies the streaming link sketch
// against the exact MetricsLinks maximum on quick-preset-sized worlds.
// The metrics mode never touches the RNG streams, so the same (cfg,
// trial) pair replays the identical request trajectory under both modes
// and the space-saving guarantees must hold exactly:
//
//	exact ≤ approx ≤ exact + totalHops/sketchCapacity
//
// On worlds whose 4n directed links fit the sketch, approx == exact.
func TestLinkMaxApproxBracketsExact(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		exact bool // 4n ≤ sketch capacity: counts must match exactly
	}{
		{"small-exact", Config{Side: 12, K: 150, M: 2, Seed: 0x63,
			Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}}, true},
		{"small-nearest", Config{Side: 14, K: 200, M: 2, Seed: 5,
			Strategy: StrategySpec{Kind: Nearest}}, true},
		{"quick-preset", Config{Side: 40, K: 2000, M: 4, Seed: 7,
			Strategy: StrategySpec{Kind: TwoChoices, Radius: 8}}, false},
		// Zipf popularity: the head files take the index's dense-bitmap path.
		{"quick-indexed", Config{Side: 40, K: 2000, M: 4, Seed: 7,
			Popularity: PopSpec{Kind: PopZipf, Gamma: 1.2},
			Strategy:   StrategySpec{Kind: TwoChoices, Radius: 8}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.exact && 4*tc.cfg.N() > LinkSketchCap {
				t.Fatalf("fixture bug: %d links exceed sketch capacity %d", 4*tc.cfg.N(), LinkSketchCap)
			}
			for trial := uint64(0); trial < 3; trial++ {
				ecfg := tc.cfg
				ecfg.Metrics = MetricsLinks
				exact, err := RunTrial(ecfg, trial)
				if err != nil {
					t.Fatal(err)
				}
				scfg := tc.cfg
				scfg.Metrics = MetricsStreaming
				got, err := RunTrial(scfg, trial)
				if err != nil {
					t.Fatal(err)
				}
				totalHops := int64(got.MeanCost*float64(got.Requests) + 0.5)
				bound := totalHops / LinkSketchCap
				if got.LinkMaxApprox < exact.MaxLinkLoad {
					t.Errorf("t=%d: LinkMaxApprox %d below exact max %d", trial, got.LinkMaxApprox, exact.MaxLinkLoad)
				}
				if got.LinkMaxApprox > exact.MaxLinkLoad+bound {
					t.Errorf("t=%d: LinkMaxApprox %d exceeds exact %d + bound %d", trial, got.LinkMaxApprox, exact.MaxLinkLoad, bound)
				}
				if tc.exact && got.LinkMaxApprox != exact.MaxLinkLoad {
					t.Errorf("t=%d: links fit the sketch but approx %d != exact %d", trial, got.LinkMaxApprox, exact.MaxLinkLoad)
				}
				if exact.MaxLinkLoad == 0 {
					t.Fatalf("t=%d: degenerate trial with no link traffic", trial)
				}
			}
		})
	}
}

// TestLinkMaxApproxInAggregate: the new field flows into aggregates.
func TestLinkMaxApproxInAggregate(t *testing.T) {
	cfg := Config{Side: 12, K: 150, M: 2, Seed: 1, Metrics: MetricsStreaming,
		Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}}
	agg, err := Run(cfg, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if agg.LinkMaxApprox.N() != 4 || agg.LinkMaxApprox.Mean() <= 0 {
		t.Fatalf("LinkMaxApprox missing from aggregate: %+v", agg.LinkMaxApprox)
	}
}
