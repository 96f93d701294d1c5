package sim

import (
	"strings"
	"testing"

	"repro/internal/grid"
)

// TestPointSpecConfig pins the translation's own table: empty names
// select the torus and each enum's zero value, the aliases build what
// their full names build, each strategy reads only its own fields,
// γ ≤ 0 is uniform popularity, and the result is validated.
func TestPointSpecConfig(t *testing.T) {
	at := func(p PointSpec) PointSpec {
		p.Side, p.K, p.M = 5, 10, 1
		return p
	}
	world := Config{Side: 5, K: 10, M: 1, Seed: 3}
	with := func(f func(*Config)) Config {
		c := world
		f(&c)
		return c
	}
	for _, tc := range []struct {
		name string
		p    PointSpec
		want Config
	}{
		{"empty", at(PointSpec{}), world},
		{"named defaults", at(PointSpec{Topology: "torus", Strategy: "nearest", Miss: "resample", Metrics: "scalar",
			Churn: "none", Faults: "none", Hetero: "none", Profile: "uniform", Shard: "deterministic"}), world},
		{"bounded alias", at(PointSpec{Topology: "bounded"}), with(func(c *Config) { c.Topology = grid.Bounded })},
		{"grid", at(PointSpec{Topology: "grid"}), with(func(c *Config) { c.Topology = grid.Bounded })},
		{"nearest reads no strategy field", at(PointSpec{Radius: 4, Choices: 3, Beta: 0.5}), world},
		{"two", at(PointSpec{Strategy: "two", Radius: 2, Choices: 3, Beta: 0.5}),
			with(func(c *Config) { c.Strategy = StrategySpec{Kind: TwoChoices, Radius: 2, Choices: 3, Beta: 0.5} })},
		{"two-choices", at(PointSpec{Strategy: "two-choices", Radius: -1}),
			with(func(c *Config) { c.Strategy = StrategySpec{Kind: TwoChoices, Radius: -1} })},
		{"one", at(PointSpec{Strategy: "one", Radius: 2, Choices: 3, Beta: 0.5}),
			with(func(c *Config) { c.Strategy = StrategySpec{Kind: OneChoiceRandom, Radius: 2} })},
		{"one-choice", at(PointSpec{Strategy: "one-choice", Radius: 2}),
			with(func(c *Config) { c.Strategy = StrategySpec{Kind: OneChoiceRandom, Radius: 2} })},
		{"oracle", at(PointSpec{Strategy: "oracle", Radius: 2, Choices: 3}),
			with(func(c *Config) { c.Strategy = StrategySpec{Kind: Oracle, Radius: 2} })},
		{"negative gamma", at(PointSpec{Gamma: -1}), world},
		{"zipf", at(PointSpec{Gamma: 0.7}), with(func(c *Config) { c.Popularity = PopSpec{Kind: PopZipf, Gamma: 0.7} })},
		{"every knob", PointSpec{Side: 12, K: 40, M: 3, Requests: 4096, Miss: "origin", Metrics: "links",
			Churn: "drift", ChurnRate: 0.5, Faults: "regional", FaultRate: 0.1, RecoverRate: 0.05,
			Hetero: "arrival", Profile: "two-tier", ArrivalRate: 0.01, Workers: 2, Shard: "racy", Chunk: 128},
			Config{Side: 12, K: 40, M: 3, Requests: 4096, MissPolicy: MissOrigin, Metrics: MetricsLinks,
				Churn: ChurnDrift, ChurnRate: 0.5, Faults: FaultsRegional, FaultRate: 0.1, RecoverRate: 0.05,
				Hetero: HeteroArrival, Profile: ProfileTwoTier, ArrivalRate: 0.01, Workers: 2, Shard: ShardRacy, Chunk: 128, Seed: 3}},
	} {
		got, err := tc.p.Config(3)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}

	for _, tc := range []struct {
		name string
		p    PointSpec
		want []string // every substring the error must hold
	}{
		{"strategy case", at(PointSpec{Strategy: "Two"}), []string{`unknown strategy "Two"`}},
		{"topology", at(PointSpec{Topology: "ring"}), []string{`"ring"`}},
		{"two bad names", at(PointSpec{Miss: "x", Shard: "y"}), []string{`miss policy "x"`, `shard mode "y"`}},
		{"validated", at(PointSpec{Churn: "replicas"}), []string{"ChurnRate"}},
		{"no world", PointSpec{}, []string{"Side"}},
	} {
		_, err := tc.p.Config(3)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, w)
			}
		}
	}
}
