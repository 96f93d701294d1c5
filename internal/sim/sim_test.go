package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/replication"
)

func baseConfig() Config {
	return Config{
		Side: 15, // n = 225
		K:    50,
		M:    2,
		Seed: 42,
	}
}

func TestKindStrings(t *testing.T) {
	if Nearest.String() != "nearest" || TwoChoices.String() != "two-choices" ||
		OneChoiceRandom.String() != "one-choice" || Oracle.String() != "oracle" ||
		StrategyKind(9).String() != "StrategyKind(9)" {
		t.Fatal("StrategyKind strings wrong")
	}
	if MissResample.String() != "resample" || MissEscalate.String() != "escalate" ||
		MissOrigin.String() != "origin" || MissPolicy(9).String() != "MissPolicy(9)" {
		t.Fatal("MissPolicy strings wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"side":     func(c *Config) { c.Side = 0 },
		"k":        func(c *Config) { c.K = 0 },
		"m":        func(c *Config) { c.M = -1 },
		"requests": func(c *Config) { c.Requests = -5 },
		// n = Side² must fit int32 node ids; Side² itself must not
		// overflow before the check.
		"side over int32": func(c *Config) { c.Side = maxSide + 1 },
		"side overflow":   func(c *Config) { c.Side = 1 << 33 },
		// 4096² nodes × 2²⁰ slots = 1.7·10¹³ slots (a sweep-cap corner).
		"slots":      func(c *Config) { c.Side, c.M = 4096, 1<<20 },
		"slots m":    func(c *Config) { c.M = 1 << 62 },
		"slots edge": func(c *Config) { c.Side, c.M = 16384, 2 },
		"slots profile": func(c *Config) {
			c.Side, c.M = 8192, 4
			c.Hetero, c.Profile = HeteroCapacity, ProfilePowerLaw
		},
		// File ids are int32 and every per-file arena is O(K).
		"k over cap": func(c *Config) { c.K = maxK + 1 },
		"k overflow": func(c *Config) { c.K = 1 << 40 },
		// Model fields, each read by the configured strategy or profile:
		// out-of-range values used to panic inside the trial, or — for
		// Topology, MissPolicy and a NaN Beta — run some other model.
		"topology":          func(c *Config) { c.Topology = 9 },
		"popularity kind":   func(c *Config) { c.Popularity.Kind = 9 },
		"zipf gamma nan":    func(c *Config) { c.Popularity = PopSpec{Kind: PopZipf, Gamma: math.NaN()} },
		"zipf gamma neg":    func(c *Config) { c.Popularity = PopSpec{Kind: PopZipf, Gamma: -3} },
		"zipf gamma inf":    func(c *Config) { c.Popularity = PopSpec{Kind: PopZipf, Gamma: math.Inf(1)} },
		"placement mode":    func(c *Config) { c.PlacementMode = 9 },
		"placement policy":  func(c *Config) { c.PlacementPolicy = 9 },
		"cap factor nan":    func(c *Config) { c.PlacementPolicy, c.CapFactor = replication.Capped, math.NaN() },
		"miss policy":       func(c *Config) { c.MissPolicy = 9 },
		"strategy kind":     func(c *Config) { c.Strategy.Kind = 9 },
		"radius":            func(c *Config) { c.Strategy = StrategySpec{Kind: TwoChoices, Radius: -7} },
		"radius one-choice": func(c *Config) { c.Strategy = StrategySpec{Kind: OneChoiceRandom, Radius: -7} },
		"radius oracle":     func(c *Config) { c.Strategy = StrategySpec{Kind: Oracle, Radius: -7} },
		"choices":           func(c *Config) { c.Strategy = StrategySpec{Kind: TwoChoices, Radius: 3, Choices: -1} },
		"beta":              func(c *Config) { c.Strategy = StrategySpec{Kind: TwoChoices, Radius: 3, Beta: 2} },
		"beta neg":          func(c *Config) { c.Strategy = StrategySpec{Kind: TwoChoices, Radius: 3, Beta: -0.5} },
		"beta nan":          func(c *Config) { c.Strategy = StrategySpec{Kind: TwoChoices, Radius: 3, Beta: math.NaN()} },
	} {
		validationRejects(t, name, mut)
	}
	// Fields the configured strategy does not read stay unchecked:
	// Nearest ignores Radius, Choices and Beta, and the oracle and
	// one-choice ignore Choices and Beta.
	for _, sp := range []StrategySpec{
		{Kind: Nearest, Radius: -7, Choices: -1, Beta: 2},
		{Kind: Oracle, Radius: 3, Choices: -1, Beta: math.NaN()},
		{Kind: OneChoiceRandom, Radius: core.RadiusUnbounded, Choices: -1, Beta: 2},
	} {
		c := baseConfig()
		c.Strategy = sp
		if _, err := RunTrial(c, 0); err != nil {
			t.Errorf("%v with unread fields rejected: %v", sp, err)
		}
	}
	// Event rates: a NaN rate passes every sign check, and a credit loop
	// never drains +Inf or a rate past 2⁵³ per chunk, so each of the four
	// rates must be finite and at most maxEventRate.
	for _, rate := range []struct {
		name string
		set  func(*Config, float64)
	}{
		{"churn", func(c *Config, v float64) { c.Churn, c.ChurnRate = ChurnReplicas, v }},
		{"fault", func(c *Config, v float64) {
			c.Faults, c.FaultRate, c.MissPolicy = FaultsCrash, v, MissEscalate
		}},
		{"recover", func(c *Config, v float64) {
			c.Faults, c.FaultRate, c.RecoverRate, c.MissPolicy = FaultsCrash, 0.01, v, MissEscalate
		}},
		{"arrival", func(c *Config, v float64) {
			c.Hetero, c.ArrivalRate, c.MissPolicy = HeteroArrival, v, MissEscalate
		}},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), maxEventRate * 1.5, 1e300} {
			validationRejects(t, fmt.Sprintf("%s rate %v", rate.name, v), func(c *Config) { rate.set(c, v) })
		}
		c := baseConfig()
		rate.set(&c, maxEventRate)
		if err := Validate(c); err != nil {
			t.Errorf("%s rate at the %d ceiling rejected: %v", rate.name, maxEventRate, err)
		}
	}
	if _, err := Run(baseConfig(), 0, 1); err == nil {
		t.Error("Run accepted zero trials")
	}
	// The slot budget is inclusive: 16384² nodes × 1 slot = 2²⁸, and
	// 8192² × 4 under the uniform profile is the same budget.
	for _, c := range []Config{{Side: 16384, K: 10, M: 1}, {Side: 8192, K: 10, M: 4}} {
		if err := Validate(c); err != nil {
			t.Errorf("Side=%d M=%d at the slot budget rejected: %v", c.Side, c.M, err)
		}
	}
	// The file cap is inclusive too.
	if err := Validate(Config{Side: 4, K: maxK, M: 1}); err != nil {
		t.Errorf("K=%d at the file cap rejected: %v", maxK, err)
	}
}

// validationRejects fails unless RunTrial and Run both reject the base
// config as changed by mut.
func validationRejects(t *testing.T, name string, mut func(*Config)) {
	t.Helper()
	c := baseConfig()
	mut(&c)
	if _, err := RunTrial(c, 0); err == nil {
		t.Errorf("%s: invalid config accepted", name)
	}
	if _, err := Run(c, 1, 1); err == nil {
		t.Errorf("%s: Run accepted invalid config", name)
	}
}

func TestTrialDeterminism(t *testing.T) {
	cfg := baseConfig()
	cfg.Strategy = StrategySpec{Kind: TwoChoices, Radius: core.RadiusUnbounded}
	a, err := RunTrial(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrial(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same trial differs: %+v vs %+v", a, b)
	}
	c, err := RunTrial(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatalf("different trials identical: %+v", a)
	}
}

func TestRunWorkerCountInvariance(t *testing.T) {
	cfg := baseConfig()
	cfg.Strategy = StrategySpec{Kind: TwoChoices, Radius: 5}
	a1, err := Run(cfg, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	a8, err := Run(cfg, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a1.MaxLoad.Mean()-a8.MaxLoad.Mean()) > 1e-12 ||
		math.Abs(a1.MeanCost.Mean()-a8.MeanCost.Mean()) > 1e-12 {
		t.Fatalf("worker count changed results: %v vs %v", a1, a8)
	}
	if a1.Trials != 20 || a8.Trials != 20 {
		t.Fatalf("trial counts wrong: %d %d", a1.Trials, a8.Trials)
	}
}

func TestResultInvariants(t *testing.T) {
	prop := func(seed uint64, stratRaw, missRaw uint8, radiusRaw uint8) bool {
		cfg := baseConfig()
		cfg.Seed = seed
		cfg.Strategy = StrategySpec{
			Kind:   StrategyKind(int(stratRaw) % 4),
			Radius: int(radiusRaw)%10 + 1,
		}
		cfg.MissPolicy = MissPolicy(int(missRaw) % 3)
		r, err := RunTrial(cfg, 0)
		if err != nil {
			return false
		}
		n := cfg.N()
		// n requests over n servers: max load within [ceil(1), n].
		if r.MaxLoad < 1 || r.MaxLoad > n {
			return false
		}
		if r.MeanCost < 0 || r.MeanCost > float64(2*cfg.Side) {
			return false
		}
		if r.Requests != n || r.Escalated < 0 || r.Escalated > n ||
			r.Backhaul < 0 || r.Backhaul > n {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMissResampleNeverBackhauls(t *testing.T) {
	cfg := baseConfig()
	cfg.K = 2000 // K >> nM: many uncached files
	cfg.M = 1
	cfg.MissPolicy = MissResample
	cfg.Strategy = StrategySpec{Kind: TwoChoices, Radius: 4}
	r, err := RunTrial(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Uncached == 0 {
		t.Fatal("expected uncached files in this regime")
	}
	if r.Backhaul != 0 {
		t.Fatalf("resample policy produced %d backhauls", r.Backhaul)
	}
}

func TestMissEscalateBackhaulsUncached(t *testing.T) {
	cfg := baseConfig()
	cfg.K = 2000
	cfg.M = 1
	cfg.MissPolicy = MissEscalate
	cfg.Strategy = StrategySpec{Kind: TwoChoices, Radius: 4}
	agg, err := Run(cfg, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Backhaul.Mean() <= 0 {
		t.Fatal("escalate policy should backhaul uncached files in this regime")
	}
}

func TestMissOriginNeverEscalates(t *testing.T) {
	cfg := baseConfig()
	cfg.K = 500
	cfg.M = 1
	cfg.MissPolicy = MissOrigin
	cfg.Strategy = StrategySpec{Kind: TwoChoices, Radius: 2}
	r, err := RunTrial(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Escalated != 0 {
		t.Fatalf("origin policy escalated %d times", r.Escalated)
	}
	if r.Backhaul == 0 {
		t.Fatal("origin policy should have served some misses at the origin")
	}
}

func TestTwoChoicesBeatsOneChoice(t *testing.T) {
	// The paper's central claim in miniature: with ample replication,
	// Strategy II's max load sits well below the load-blind baseline.
	mk := func(kind StrategyKind) Config {
		c := Config{Side: 32, K: 64, M: 4, Seed: 7} // n=1024, ~64 replicas/file
		c.Strategy = StrategySpec{Kind: kind, Radius: core.RadiusUnbounded}
		return c
	}
	two, err := Run(mk(TwoChoices), 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(mk(OneChoiceRandom), 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(two.MaxLoad.Mean() < one.MaxLoad.Mean()-0.5) {
		t.Fatalf("two-choices %.2f not clearly below one-choice %.2f",
			two.MaxLoad.Mean(), one.MaxLoad.Mean())
	}
	// And the oracle lower-bounds Strategy II.
	orc, err := Run(mk(Oracle), 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if orc.MaxLoad.Mean() > two.MaxLoad.Mean()+0.25 {
		t.Fatalf("oracle %.2f above two-choices %.2f", orc.MaxLoad.Mean(), two.MaxLoad.Mean())
	}
}

func TestNearestCostBelowTwoChoiceCost(t *testing.T) {
	// Strategy I is the communication-cost optimum: its mean cost must
	// lower-bound Strategy II's with r = ∞ on the same worlds.
	near := baseConfig()
	near.Strategy = StrategySpec{Kind: Nearest}
	twoc := baseConfig()
	twoc.Strategy = StrategySpec{Kind: TwoChoices, Radius: core.RadiusUnbounded}
	an, err := Run(near, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	at, err := Run(twoc, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if an.MeanCost.Mean() >= at.MeanCost.Mean() {
		t.Fatalf("nearest cost %.2f not below two-choice(∞) cost %.2f",
			an.MeanCost.Mean(), at.MeanCost.Mean())
	}
}

func TestRadiusControlsCost(t *testing.T) {
	// Communication cost must grow with the proximity radius r (Θ(r)) in
	// the regime where B_r(u) reliably contains replicas. (With sparse
	// replication small radii *raise* cost via escalation — covered by
	// TestEscalationDominatesSparseRadii below.)
	costs := make([]float64, 0, 3)
	for _, r := range []int{3, 8, 16} {
		cfg := Config{Side: 45, K: 100, M: 20, Seed: 9} // ~20% replica density
		cfg.Strategy = StrategySpec{Kind: TwoChoices, Radius: r}
		a, err := Run(cfg, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a.Escalated.Mean() > 0.05 {
			t.Fatalf("r=%d: escalation fraction %.3f too high for this test", r, a.Escalated.Mean())
		}
		costs = append(costs, a.MeanCost.Mean())
	}
	if !(costs[0] < costs[1] && costs[1] < costs[2]) {
		t.Fatalf("cost not increasing in radius: %v", costs)
	}
}

func TestEscalationDominatesSparseRadii(t *testing.T) {
	// With sparse replication, a tiny radius forces frequent escalation
	// to r = ∞, so cost *exceeds* a moderate radius — the trade-off edge
	// the Fig. 5 harness must navigate.
	mk := func(r int) Config {
		cfg := Config{Side: 45, K: 100, M: 4, Seed: 9}
		cfg.Strategy = StrategySpec{Kind: TwoChoices, Radius: r}
		return cfg
	}
	tiny, err := Run(mk(2), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := Run(mk(8), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Escalated.Mean() < 0.2 {
		t.Fatalf("expected heavy escalation at r=2, got %.3f", tiny.Escalated.Mean())
	}
	if tiny.MeanCost.Mean() <= mid.MeanCost.Mean() {
		t.Fatalf("escalation should make r=2 cost %.2f exceed r=8 cost %.2f",
			tiny.MeanCost.Mean(), mid.MeanCost.Mean())
	}
}

func TestRequestsOverride(t *testing.T) {
	cfg := baseConfig()
	cfg.Requests = 17
	r, err := RunTrial(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests != 17 {
		t.Fatalf("requests = %d, want 17", r.Requests)
	}
}

func TestBoundedGridRuns(t *testing.T) {
	cfg := baseConfig()
	cfg.Topology = grid.Bounded
	cfg.Strategy = StrategySpec{Kind: TwoChoices, Radius: 3}
	if _, err := Run(cfg, 4, 2); err != nil {
		t.Fatal(err)
	}
}

func TestZipfPopularityRuns(t *testing.T) {
	cfg := baseConfig()
	cfg.Popularity = PopSpec{Kind: PopZipf, Gamma: 1.2}
	a, err := Run(cfg, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Zipf skew lowers nearest-replica cost versus uniform (Theorem 3).
	cfgU := baseConfig()
	b, err := Run(cfgU, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanCost.Mean() >= b.MeanCost.Mean() {
		t.Fatalf("zipf cost %.3f not below uniform cost %.3f", a.MeanCost.Mean(), b.MeanCost.Mean())
	}
}

func TestAggregateString(t *testing.T) {
	var a Aggregate
	a.Add(Result{MaxLoad: 3, MeanCost: 1.5, Requests: 10})
	if a.String() == "" || a.Trials != 1 {
		t.Fatal("aggregate bookkeeping broken")
	}
}

func TestRunSeries(t *testing.T) {
	cfgs := []Config{baseConfig(), baseConfig()}
	cfgs[1].M = 4
	aggs, err := RunSeries(cfgs, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 2 || aggs[0].Trials != 4 || aggs[1].Trials != 4 {
		t.Fatalf("series shape wrong: %+v", aggs)
	}
	// Larger caches reduce nearest-replica cost.
	if aggs[1].MeanCost.Mean() >= aggs[0].MeanCost.Mean() {
		t.Fatalf("M=4 cost %.3f not below M=2 cost %.3f",
			aggs[1].MeanCost.Mean(), aggs[0].MeanCost.Mean())
	}
	cfgs[0].Side = 0
	if _, err := RunSeries(cfgs, 1, 1); err == nil {
		t.Fatal("series accepted invalid config")
	}
}

func TestRunSeriesMatchesRun(t *testing.T) {
	// The shared-pool series scheduler must reproduce per-point Run
	// exactly: same block partition, same merge order, any interleaving.
	cfgs := make([]Config, 0, 6)
	for _, m := range []int{1, 2, 4} {
		for _, kind := range []StrategyKind{Nearest, TwoChoices} {
			c := baseConfig()
			c.M = m
			c.Strategy = StrategySpec{Kind: kind, Radius: 4}
			cfgs = append(cfgs, c)
		}
	}
	const trials, workers = 7, 3
	series, err := RunSeries(cfgs, trials, workers)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := Run(cfg, trials, workers)
		if err != nil {
			t.Fatal(err)
		}
		if series[i] != want {
			t.Fatalf("point %d: series %+v != run %+v", i, series[i], want)
		}
	}
}

// TestRunSeriesConfigParallelism exercises config-level parallelism with
// more workers than any single point's trials; run under -race (CI does)
// to validate that Worlds are shared safely across workers while Runners
// stay worker-local.
func TestRunSeriesConfigParallelism(t *testing.T) {
	cfgs := make([]Config, 8)
	for i := range cfgs {
		cfgs[i] = baseConfig()
		cfgs[i].Seed = uint64(100 + i)
		cfgs[i].Strategy = StrategySpec{Kind: TwoChoices, Radius: 5}
	}
	a, err := RunSeries(cfgs, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSeries(cfgs, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if a[i].Trials != 2 || a[i] != b[i] {
			t.Fatalf("point %d: worker count changed series results: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func BenchmarkTrialNearestN2025(b *testing.B) {
	cfg := Config{Side: 45, K: 100, M: 10, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunTrial(cfg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrialTwoChoiceN2025(b *testing.B) {
	cfg := Config{Side: 45, K: 500, M: 10, Seed: 1}
	cfg.Strategy = StrategySpec{Kind: TwoChoices, Radius: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunTrial(cfg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
