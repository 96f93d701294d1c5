package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/replication"
)

func TestCollectLinksMetrics(t *testing.T) {
	cfg := baseConfig()
	cfg.Metrics = MetricsLinks
	cfg.Strategy = StrategySpec{Kind: TwoChoices, Radius: core.RadiusUnbounded}
	res, err := RunTrial(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLinkLoad <= 0 {
		t.Fatalf("link load not collected: %+v", res)
	}
	if res.LinkCongestion < 1 {
		t.Fatalf("congestion factor %v must be ≥ 1 when traffic flows", res.LinkCongestion)
	}
	// In scalar mode, link metrics stay zero.
	cfg.Metrics = MetricsScalar
	res2, err := RunTrial(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.MaxLinkLoad != 0 || res2.LinkCongestion != 0 {
		t.Fatalf("link metrics leaked into scalar mode: %+v", res2)
	}
	// Aggregates fold link metrics only when present.
	var agg Aggregate
	agg.Add(res)
	agg.Add(res2)
	if agg.MaxLinkLoad.N() != 1 {
		t.Fatalf("aggregate folded %d link observations, want 1", agg.MaxLinkLoad.N())
	}
}

func TestNearestTrafficBelowUnboundedTwoChoice(t *testing.T) {
	mk := func(kind StrategySpec) Config {
		c := baseConfig()
		c.Metrics = MetricsLinks
		c.Strategy = kind
		return c
	}
	near, err := Run(mk(StrategySpec{Kind: Nearest}), 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(mk(StrategySpec{Kind: TwoChoices, Radius: core.RadiusUnbounded}), 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if near.MaxLinkLoad.Mean() >= two.MaxLinkLoad.Mean() {
		t.Fatalf("nearest max link %.1f not below two-choice(inf) %.1f",
			near.MaxLinkLoad.Mean(), two.MaxLinkLoad.Mean())
	}
}

func TestPlacementPolicyChangesBehaviour(t *testing.T) {
	// Proportional placement equalizes demand per replica (LoadSkew = 1),
	// so on a skewed catalog it must yield a far lower Strategy II max
	// load than popularity-blind uniform placement, whose few head
	// replicas absorb the bulk of the traffic. Square-root placement
	// sits in between.
	mk := func(pol replication.Policy) Config {
		c := Config{Side: 45, K: 500, M: 2, Seed: 3}
		c.Popularity = PopSpec{Kind: PopZipf, Gamma: 1.4}
		c.PlacementPolicy = pol
		c.Strategy = StrategySpec{Kind: TwoChoices, Radius: core.RadiusUnbounded}
		return c
	}
	prop, err := Run(mk(replication.Proportional), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	sqrtP, err := Run(mk(replication.SquareRoot), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := Run(mk(replication.UniformPlace), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(prop.MaxLoad.Mean() < sqrtP.MaxLoad.Mean() && sqrtP.MaxLoad.Mean() < uni.MaxLoad.Mean()) {
		t.Fatalf("placement loads not ordered prop < sqrt < uniform: %.2f, %.2f, %.2f",
			prop.MaxLoad.Mean(), sqrtP.MaxLoad.Mean(), uni.MaxLoad.Mean())
	}
	// The flip side: uniform placement covers more of the tail (fewer
	// uncached files) than proportional under heavy skew.
	if uni.Uncached.Mean() >= prop.Uncached.Mean() {
		t.Fatalf("uniform placement left %.1f files uncached, proportional %.1f — expected the reverse",
			uni.Uncached.Mean(), prop.Uncached.Mean())
	}
}

func TestBetaSpecPlumbed(t *testing.T) {
	cfg := baseConfig()
	cfg.Strategy = StrategySpec{Kind: TwoChoices, Radius: core.RadiusUnbounded, Beta: 0.5}
	if _, err := RunTrial(cfg, 0); err != nil {
		t.Fatal(err)
	}
	// Determinism must hold with beta randomization too.
	a, _ := RunTrial(cfg, 1)
	b, _ := RunTrial(cfg, 1)
	if a != b {
		t.Fatalf("beta runs nondeterministic: %+v vs %+v", a, b)
	}
}

func TestHeavyRequestsGap(t *testing.T) {
	// m = 8n requests: two-choice max load should stay within a few units
	// of the mean load 8, far below one-choice.
	mk := func(kind StrategyKind) Config {
		c := Config{Side: 20, K: 50, M: 8, Requests: 8 * 400, Seed: 5}
		c.Strategy = StrategySpec{Kind: kind, Radius: core.RadiusUnbounded}
		return c
	}
	two, err := Run(mk(TwoChoices), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(mk(OneChoiceRandom), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gap := two.MaxLoad.Mean() - 8; gap > 5 {
		t.Fatalf("two-choice heavy gap %.2f too large", gap)
	}
	if two.MaxLoad.Mean() >= one.MaxLoad.Mean() {
		t.Fatalf("two-choice %.2f not below one-choice %.2f under heavy load",
			two.MaxLoad.Mean(), one.MaxLoad.Mean())
	}
}
