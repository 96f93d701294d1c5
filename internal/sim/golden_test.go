package sim

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/grid"
)

// TestGoldenTrials pins exact trial outputs for fixed seeds: any change to
// the RNG derivation, placement order, sampling logic or tie-breaking will
// flip these values and must be a conscious decision (update the constants
// and note the behaviour change in the commit).
func TestGoldenTrials(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want Result
	}{
		{
			name: "nearest",
			cfg: Config{Side: 15, K: 50, M: 2, Seed: 42,
				Strategy: StrategySpec{Kind: Nearest}},
		},
		{
			name: "two-choices-r5",
			cfg: Config{Side: 15, K: 50, M: 2, Seed: 42,
				Strategy: StrategySpec{Kind: TwoChoices, Radius: 5}},
		},
		{
			name: "two-choices-rinf-zipf",
			cfg: Config{Side: 15, K: 50, M: 2, Seed: 42,
				Popularity: PopSpec{Kind: PopZipf, Gamma: 1.0},
				Strategy:   StrategySpec{Kind: TwoChoices, Radius: core.RadiusUnbounded}},
		},
	}
	// First run establishes the values; second run (and any future run on
	// any machine) must match them bit for bit.
	for _, tc := range cases {
		a, err := RunTrial(tc.cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunTrial(tc.cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("%s: trial not reproducible: %+v vs %+v", tc.name, a, b)
		}
	}
	// Pinned values (recorded from the current implementation).
	got, err := RunTrial(cases[0].cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxLoad < 3 || got.MaxLoad > 12 {
		t.Fatalf("nearest golden max load %d drifted outside historical band [3,12]", got.MaxLoad)
	}
	if got.MeanCost < 0.3 || got.MeanCost > 5 {
		t.Fatalf("nearest golden cost %.3f drifted outside historical band", got.MeanCost)
	}
}

// pin is one (config, trial) → Result pair of the golden table.
type pin struct {
	name  string
	trial uint64
	cfg   Config
	want  Result
}

// pinRegime names the slice of the golden table a pin belongs to: the
// first segment of a seed42/, index/, churn/, faults/, hetero/ or
// sharded/ name, and "head" for the strategy × miss policy × topology
// matrix and its variants.
func pinRegime(p pin) string {
	if i := strings.IndexByte(p.name, '/'); i > 0 {
		switch seg := p.name[:i]; seg {
		case "seed42", "index", "churn", "faults", "hetero", "sharded":
			return seg
		}
	}
	return "head"
}

// replayRegime replays the golden pins of one regime bit for bit. Any
// change that perturbs a seeded trajectory — RNG derivation, placement
// order, the tile-index samplers, the event schedules, tie breaking —
// flips a pin and must be re-captured on purpose. Sharded deterministic
// pins replay at every P ∈ {1, 2, 4, 8}, which enforces the P-invariance
// they were captured under.
func replayRegime(t *testing.T, regime string) {
	t.Helper()
	replayed := 0
	for _, p := range goldenPins {
		if pinRegime(p) != regime {
			continue
		}
		replayed++
		workers := []int{p.cfg.Workers}
		if p.cfg.Workers > 0 && p.cfg.Shard == ShardDeterministic {
			workers = []int{1, 2, 4, 8}
		}
		for _, P := range workers {
			cfg := p.cfg
			cfg.Workers = P
			got, err := RunTrial(cfg, p.trial)
			if err != nil {
				t.Fatalf("%s t=%d P=%d: %v", p.name, p.trial, P, err)
			}
			if got != p.want {
				t.Errorf("%s t=%d P=%d:\n got %+v\nwant %+v", p.name, p.trial, P, got, p.want)
			}
		}
	}
	if replayed == 0 {
		t.Fatalf("golden table has no %s pins", regime)
	}
}

// TestGoldenTrialsPinned replays the seed-42 trials of TestGoldenTrials.
func TestGoldenTrialsPinned(t *testing.T) { replayRegime(t, "seed42") }

// TestGoldenMatrixHead replays strategy × miss policy × topology ×
// candidate sampling plus the Zipf, link-metric, β- and d-choice,
// uncached-resample and request-count variants.
func TestGoldenMatrixHead(t *testing.T) { replayRegime(t, "head") }

// TestGoldenMatrixIndexTiles replays the d-choice, β, Zipf,
// wrapping-radius and request-count variants of the tile-index ladder.
func TestGoldenMatrixIndexTiles(t *testing.T) { replayRegime(t, "index") }

// TestGoldenMatrixChurn replays the replica-churn and drift regimes.
func TestGoldenMatrixChurn(t *testing.T) { replayRegime(t, "churn") }

// TestGoldenMatrixFaults replays the crash and regional fault regimes and
// their churn, streaming and sharded compositions.
func TestGoldenMatrixFaults(t *testing.T) { replayRegime(t, "faults") }

// TestGoldenMatrixHetero replays the capacity and arrival regimes and
// their churn, fault, streaming and sharded compositions.
func TestGoldenMatrixHetero(t *testing.T) { replayRegime(t, "hetero") }

// TestGoldenMatrixParallel replays the sharded engine at P ∈ {1, 2, 4, 8}.
func TestGoldenMatrixParallel(t *testing.T) { replayRegime(t, "sharded") }

// everyNth returns every nth golden pin whose config keep accepts: the
// representative sample the regime-identity tests replay with a
// zero-effect knob spelled out.
func everyNth(n int, keep func(Config) bool) []pin {
	var out []pin
	i := 0
	for _, p := range goldenPins {
		if keep(p.cfg) {
			if i%n == 0 {
				out = append(out, p)
			}
			i++
		}
	}
	return out
}

// TestWorldMatchesRunTrial is the cross-implementation determinism check:
// for every strategy × miss-policy × topology combination (plus the
// without-replacement candidate-sampling variant), a compiled World —
// whether driven through a reused Runner, a fresh Runner per trial, or the
// pooled World.RunTrial convenience — must reproduce the public RunTrial
// results bit for bit. Scratch reuse across trials must never leak state.
func TestWorldMatchesRunTrial(t *testing.T) {
	kinds := []StrategyKind{Nearest, TwoChoices, OneChoiceRandom, Oracle}
	policies := []MissPolicy{MissResample, MissEscalate, MissOrigin}
	topos := []grid.Topology{grid.Torus, grid.Bounded}
	const trials = 3
	for _, kind := range kinds {
		for _, mp := range policies {
			for _, topo := range topos {
				for _, wr := range []bool{false, true} {
					cfg := Config{
						Side: 12, K: 150, M: 2, Seed: 99, Topology: topo, MissPolicy: mp,
						Strategy: StrategySpec{Kind: kind, Radius: 3, WithoutReplacement: wr},
					}
					name := kind.String() + "/" + mp.String() + "/" + topo.String()
					w, err := Compile(cfg)
					if err != nil {
						t.Fatal(err)
					}
					reused := w.NewRunner()
					for trial := uint64(0); trial < trials; trial++ {
						want, err := RunTrial(cfg, trial)
						if err != nil {
							t.Fatal(err)
						}
						if got := reused.RunTrial(trial); got != want {
							t.Fatalf("%s t=%d: reused runner %+v != RunTrial %+v", name, trial, got, want)
						}
						if got := w.NewRunner().RunTrial(trial); got != want {
							t.Fatalf("%s t=%d: fresh runner %+v != RunTrial %+v", name, trial, got, want)
						}
						if got := w.RunTrial(trial); got != want {
							t.Fatalf("%s t=%d: pooled World.RunTrial %+v != RunTrial %+v", name, trial, got, want)
						}
					}
				}
			}
		}
	}
}

// TestWorldMatchesRunTrialLinks covers the link-collection path, which
// carries extra per-trial state (the LinkLoads accumulator) that Runners
// reuse and must fully reset.
func TestWorldMatchesRunTrialLinks(t *testing.T) {
	cfg := Config{Side: 10, K: 40, M: 2, Seed: 5, Metrics: MetricsLinks,
		Strategy: StrategySpec{Kind: TwoChoices, Radius: 4}}
	w, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := w.NewRunner()
	for trial := uint64(0); trial < 4; trial++ {
		want, err := RunTrial(cfg, trial)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.RunTrial(trial); got != want {
			t.Fatalf("t=%d: %+v != %+v", trial, got, want)
		}
		if want.MaxLinkLoad == 0 {
			t.Fatalf("t=%d: link metrics not collected", trial)
		}
	}
}

// goldenPins is the golden table, captured from the engine as it stands:
// split request streams, the tile-index ladder for bounded-radius choice
// strategies. Pins whose configuration already ran that way in the six
// per-regime matrices it replaced kept their values.
var goldenPins = []pin{
	{name: "seed42/nearest", trial: 0, cfg: Config{Side: 15, K: 50, M: 2, Seed: 0x2a},
		want: Result{MaxLoad: 4, MeanCost: 3.128888888888889, Requests: 225}},
	{name: "seed42/two-choices-r5", trial: 0, cfg: Config{Side: 15, K: 50, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 5}, Seed: 0x2a},
		want: Result{MaxLoad: 5, MeanCost: 4.133333333333334, Requests: 225, Escalated: 27}},
	{name: "nearest/resample/torus", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: Nearest, Radius: 3}, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 4.493055555555555, Requests: 144, Uncached: 22}},
	{name: "nearest/resample/torus", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: Nearest, Radius: 3}, Seed: 0x63},
		want: Result{MaxLoad: 6, MeanCost: 4.833333333333333, Requests: 144, Uncached: 23}},
	{name: "nearest/resample/grid", trial: 0, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: Nearest, Radius: 3}, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 5.756944444444445, Requests: 144, Uncached: 22}},
	{name: "nearest/resample/grid", trial: 1, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: Nearest, Radius: 3}, Seed: 0x63},
		want: Result{MaxLoad: 5, MeanCost: 6.402777777777778, Requests: 144, Uncached: 23}},
	{name: "nearest/escalate/torus", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: Nearest, Radius: 3}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 5, MeanCost: 3.8541666666666665, Requests: 144, Backhaul: 25, Uncached: 22}},
	{name: "nearest/escalate/torus", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: Nearest, Radius: 3}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 4.097222222222222, Requests: 144, Backhaul: 21, Uncached: 23}},
	{name: "nearest/escalate/grid", trial: 0, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: Nearest, Radius: 3}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 4.958333333333333, Requests: 144, Backhaul: 25, Uncached: 22}},
	{name: "nearest/escalate/grid", trial: 1, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: Nearest, Radius: 3}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 5.180555555555555, Requests: 144, Backhaul: 21, Uncached: 23}},
	{name: "nearest/origin/torus", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: Nearest, Radius: 3}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 5, MeanCost: 3.8541666666666665, Requests: 144, Backhaul: 25, Uncached: 22}},
	{name: "nearest/origin/torus", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: Nearest, Radius: 3}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 4.097222222222222, Requests: 144, Backhaul: 21, Uncached: 23}},
	{name: "nearest/origin/grid", trial: 0, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: Nearest, Radius: 3}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 4.958333333333333, Requests: 144, Backhaul: 25, Uncached: 22}},
	{name: "nearest/origin/grid", trial: 1, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: Nearest, Radius: 3}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 5.180555555555555, Requests: 144, Backhaul: 21, Uncached: 23}},
	{name: "two-choices/resample/torus/wr=false", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 4.958333333333333, Requests: 144, Escalated: 89, Uncached: 22}},
	{name: "two-choices/resample/torus/wr=false", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Seed: 0x63},
		want: Result{MaxLoad: 5, MeanCost: 5.5, Requests: 144, Escalated: 99, Uncached: 23}},
	{name: "two-choices/resample/torus/wr=true", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, WithoutReplacement: true}, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 4.868055555555555, Requests: 144, Escalated: 89, Uncached: 22}},
	{name: "two-choices/resample/torus/wr=true", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, WithoutReplacement: true}, Seed: 0x63},
		want: Result{MaxLoad: 5, MeanCost: 5.256944444444445, Requests: 144, Escalated: 99, Uncached: 23}},
	{name: "two-choices/resample/grid/wr=false", trial: 0, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 6.513888888888889, Requests: 144, Escalated: 98, Uncached: 22}},
	{name: "two-choices/resample/grid/wr=false", trial: 1, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Seed: 0x63},
		want: Result{MaxLoad: 6, MeanCost: 7.3125, Requests: 144, Escalated: 103, Uncached: 23}},
	{name: "two-choices/resample/grid/wr=true", trial: 0, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, WithoutReplacement: true}, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 6.819444444444445, Requests: 144, Escalated: 98, Uncached: 22}},
	{name: "two-choices/resample/grid/wr=true", trial: 1, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, WithoutReplacement: true}, Seed: 0x63},
		want: Result{MaxLoad: 5, MeanCost: 7.125, Requests: 144, Escalated: 103, Uncached: 23}},
	{name: "two-choices/escalate/torus/wr=false", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 4.270833333333333, Requests: 144, Escalated: 77, Backhaul: 25, Uncached: 22}},
	{name: "two-choices/escalate/torus/wr=false", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 4.520833333333333, Requests: 144, Escalated: 85, Backhaul: 21, Uncached: 23}},
	{name: "two-choices/escalate/torus/wr=true", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, WithoutReplacement: true}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 4.333333333333333, Requests: 144, Escalated: 77, Backhaul: 25, Uncached: 22}},
	{name: "two-choices/escalate/torus/wr=true", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, WithoutReplacement: true}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 4.645833333333333, Requests: 144, Escalated: 85, Backhaul: 21, Uncached: 23}},
	{name: "two-choices/escalate/grid/wr=false", trial: 0, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 5.923611111111111, Requests: 144, Escalated: 86, Backhaul: 25, Uncached: 22}},
	{name: "two-choices/escalate/grid/wr=false", trial: 1, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 6.222222222222222, Requests: 144, Escalated: 92, Backhaul: 21, Uncached: 23}},
	{name: "two-choices/escalate/grid/wr=true", trial: 0, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, WithoutReplacement: true}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 6.159722222222222, Requests: 144, Escalated: 86, Backhaul: 25, Uncached: 22}},
	{name: "two-choices/escalate/grid/wr=true", trial: 1, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, WithoutReplacement: true}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 6.159722222222222, Requests: 144, Escalated: 92, Backhaul: 21, Uncached: 23}},
	{name: "two-choices/origin/torus/wr=false", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 0.6388888888888888, Requests: 144, Backhaul: 102, Uncached: 22}},
	{name: "two-choices/origin/torus/wr=false", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 0.6527777777777778, Requests: 144, Backhaul: 106, Uncached: 23}},
	{name: "two-choices/origin/torus/wr=true", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, WithoutReplacement: true}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 0.6458333333333334, Requests: 144, Backhaul: 102, Uncached: 22}},
	{name: "two-choices/origin/torus/wr=true", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, WithoutReplacement: true}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 0.6597222222222222, Requests: 144, Backhaul: 106, Uncached: 23}},
	{name: "two-choices/origin/grid/wr=false", trial: 0, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 0.5138888888888888, Requests: 144, Backhaul: 111, Uncached: 22}},
	{name: "two-choices/origin/grid/wr=false", trial: 1, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 0.5069444444444444, Requests: 144, Backhaul: 113, Uncached: 23}},
	{name: "two-choices/origin/grid/wr=true", trial: 0, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, WithoutReplacement: true}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 0.5069444444444444, Requests: 144, Backhaul: 111, Uncached: 22}},
	{name: "two-choices/origin/grid/wr=true", trial: 1, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, WithoutReplacement: true}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 0.5208333333333334, Requests: 144, Backhaul: 113, Uncached: 23}},
	{name: "one-choice/resample/torus", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, Seed: 0x63},
		want: Result{MaxLoad: 5, MeanCost: 5.048611111111111, Requests: 144, Escalated: 89, Uncached: 22}},
	{name: "one-choice/resample/torus", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, Seed: 0x63},
		want: Result{MaxLoad: 6, MeanCost: 5.444444444444445, Requests: 144, Escalated: 99, Uncached: 23}},
	{name: "one-choice/resample/grid", trial: 0, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 6.576388888888889, Requests: 144, Escalated: 98, Uncached: 22}},
	{name: "one-choice/resample/grid", trial: 1, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, Seed: 0x63},
		want: Result{MaxLoad: 5, MeanCost: 7.430555555555555, Requests: 144, Escalated: 103, Uncached: 23}},
	{name: "one-choice/escalate/torus", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 4.229166666666667, Requests: 144, Escalated: 77, Backhaul: 25, Uncached: 22}},
	{name: "one-choice/escalate/torus", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 4.6875, Requests: 144, Escalated: 85, Backhaul: 21, Uncached: 23}},
	{name: "one-choice/escalate/grid", trial: 0, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 5.819444444444445, Requests: 144, Escalated: 86, Backhaul: 25, Uncached: 22}},
	{name: "one-choice/escalate/grid", trial: 1, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 6.506944444444445, Requests: 144, Escalated: 92, Backhaul: 21, Uncached: 23}},
	{name: "one-choice/origin/torus", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 0.6458333333333334, Requests: 144, Backhaul: 102, Uncached: 22}},
	{name: "one-choice/origin/torus", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 0.6458333333333334, Requests: 144, Backhaul: 106, Uncached: 23}},
	{name: "one-choice/origin/grid", trial: 0, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 0.4930555555555556, Requests: 144, Backhaul: 111, Uncached: 22}},
	{name: "one-choice/origin/grid", trial: 1, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 0.5208333333333334, Requests: 144, Backhaul: 113, Uncached: 23}},
	{name: "oracle/resample/torus", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 5, Requests: 144, Escalated: 89, Uncached: 22}},
	{name: "oracle/resample/torus", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, Seed: 0x63},
		want: Result{MaxLoad: 5, MeanCost: 5.388888888888889, Requests: 144, Escalated: 99, Uncached: 23}},
	{name: "oracle/resample/grid", trial: 0, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 6.763888888888889, Requests: 144, Escalated: 98, Uncached: 22}},
	{name: "oracle/resample/grid", trial: 1, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, Seed: 0x63},
		want: Result{MaxLoad: 5, MeanCost: 7.256944444444445, Requests: 144, Escalated: 103, Uncached: 23}},
	{name: "oracle/escalate/torus", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 4.215277777777778, Requests: 144, Escalated: 77, Backhaul: 25, Uncached: 22}},
	{name: "oracle/escalate/torus", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 4.576388888888889, Requests: 144, Escalated: 85, Backhaul: 21, Uncached: 23}},
	{name: "oracle/escalate/grid", trial: 0, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 5.847222222222222, Requests: 144, Escalated: 86, Backhaul: 25, Uncached: 22}},
	{name: "oracle/escalate/grid", trial: 1, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, MissPolicy: MissEscalate, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 6.256944444444445, Requests: 144, Escalated: 92, Backhaul: 21, Uncached: 23}},
	{name: "oracle/origin/torus", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 0.6458333333333334, Requests: 144, Backhaul: 102, Uncached: 22}},
	{name: "oracle/origin/torus", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 0.6527777777777778, Requests: 144, Backhaul: 106, Uncached: 23}},
	{name: "oracle/origin/grid", trial: 0, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 0.5069444444444444, Requests: 144, Backhaul: 111, Uncached: 22}},
	{name: "oracle/origin/grid", trial: 1, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, MissPolicy: MissOrigin, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 0.5208333333333334, Requests: 144, Backhaul: 113, Uncached: 23}},
	{name: "zipf-rinf", trial: 0, cfg: Config{Side: 15, K: 50, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 1}, Strategy: StrategySpec{Kind: TwoChoices, Radius: -1}, Seed: 0x2a},
		want: Result{MaxLoad: 3, MeanCost: 7.64, Requests: 225}},
	{name: "zipf-rinf", trial: 1, cfg: Config{Side: 15, K: 50, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 1}, Strategy: StrategySpec{Kind: TwoChoices, Radius: -1}, Seed: 0x2a},
		want: Result{MaxLoad: 4, MeanCost: 7.346666666666667, Requests: 225, Uncached: 2}},
	{name: "links-two-choices", trial: 0, cfg: Config{Side: 10, K: 40, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 4}, Metrics: MetricsLinks, Seed: 0x5},
		want: Result{MaxLoad: 4, MeanCost: 3.02, Requests: 100, Escalated: 10, MaxLinkLoad: 5, LinkCongestion: 6.622516556291388}},
	{name: "links-two-choices", trial: 1, cfg: Config{Side: 10, K: 40, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 4}, Metrics: MetricsLinks, Seed: 0x5},
		want: Result{MaxLoad: 3, MeanCost: 3.58, Requests: 100, Escalated: 14, MaxLinkLoad: 4, LinkCongestion: 4.469273743016759}},
	{name: "links-nearest", trial: 0, cfg: Config{Side: 10, K: 40, M: 2, Metrics: MetricsLinks, Seed: 0x5},
		want: Result{MaxLoad: 5, MeanCost: 2.51, Requests: 100, MaxLinkLoad: 5, LinkCongestion: 7.9681274900398416}},
	{name: "links-nearest", trial: 1, cfg: Config{Side: 10, K: 40, M: 2, Metrics: MetricsLinks, Seed: 0x5},
		want: Result{MaxLoad: 6, MeanCost: 2.93, Requests: 100, MaxLinkLoad: 5, LinkCongestion: 6.825938566552898}},
	{name: "beta-choice", trial: 0, cfg: Config{Side: 12, K: 100, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 4, Beta: 0.5}, Seed: 0x7},
		want: Result{MaxLoad: 5, MeanCost: 4.722222222222222, Requests: 144, Escalated: 60, Uncached: 8}},
	{name: "beta-choice", trial: 1, cfg: Config{Side: 12, K: 100, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 4, Beta: 0.5}, Seed: 0x7},
		want: Result{MaxLoad: 5, MeanCost: 4.472222222222222, Requests: 144, Escalated: 60, Uncached: 7}},
	{name: "d4-choices", trial: 0, cfg: Config{Side: 12, K: 100, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 4, Choices: 4}, Seed: 0x7},
		want: Result{MaxLoad: 5, MeanCost: 4.756944444444445, Requests: 144, Escalated: 60, Uncached: 8}},
	{name: "d4-choices", trial: 1, cfg: Config{Side: 12, K: 100, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 4, Choices: 4}, Seed: 0x7},
		want: Result{MaxLoad: 5, MeanCost: 4.541666666666667, Requests: 144, Escalated: 60, Uncached: 7}},
	{name: "zipf-resample-uncached", trial: 0, cfg: Config{Side: 8, K: 400, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 1.2}, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Seed: 0x3},
		want: Result{MaxLoad: 3, MeanCost: 2.71875, Requests: 64, Escalated: 9, Uncached: 349}},
	{name: "zipf-resample-uncached", trial: 1, cfg: Config{Side: 8, K: 400, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 1.2}, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Seed: 0x3},
		want: Result{MaxLoad: 4, MeanCost: 2.53125, Requests: 64, Escalated: 8, Uncached: 357}},
	{name: "requests-override", trial: 0, cfg: Config{Side: 9, K: 60, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 2}, Requests: 500, Seed: 0xb},
		want: Result{MaxLoad: 19, MeanCost: 3.922, Requests: 500, Escalated: 336, Uncached: 4}},
	{name: "requests-override", trial: 1, cfg: Config{Side: 9, K: 60, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 2}, Requests: 500, Seed: 0xb},
		want: Result{MaxLoad: 14, MeanCost: 3.496, Requests: 500, Escalated: 288, Uncached: 6}},
	{name: "index/three-choices", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, Choices: 3}, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 5.090277777777778, Requests: 144, Escalated: 89, Uncached: 22}},
	{name: "index/three-choices", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, Choices: 3}, Seed: 0x63},
		want: Result{MaxLoad: 5, MeanCost: 5.375, Requests: 144, Escalated: 99, Uncached: 23}},
	{name: "index/beta", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, Beta: 0.5}, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 5.118055555555555, Requests: 144, Escalated: 89, Uncached: 22}},
	{name: "index/beta", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, Beta: 0.5}, Seed: 0x63},
		want: Result{MaxLoad: 5, MeanCost: 5.451388888888889, Requests: 144, Escalated: 99, Uncached: 23}},
	{name: "index/zipf", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 1.2}, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 3.6666666666666665, Requests: 144, Escalated: 41, Uncached: 79}},
	{name: "index/zipf", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 1.2}, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 3.1458333333333335, Requests: 144, Escalated: 34, Uncached: 85}},
	{name: "index/wrap-radius", trial: 0, cfg: Config{Side: 16, K: 100, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 8}, Seed: 0x63},
		want: Result{MaxLoad: 6, MeanCost: 5.96875, Requests: 256, Escalated: 18}},
	{name: "index/wrap-radius", trial: 1, cfg: Config{Side: 16, K: 100, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 8}, Seed: 0x63},
		want: Result{MaxLoad: 4, MeanCost: 5.73046875, Requests: 256, Escalated: 6, Uncached: 1}},
	{name: "index/requests-override", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 300, Seed: 0x63},
		want: Result{MaxLoad: 9, MeanCost: 5.14, Requests: 300, Escalated: 189, Uncached: 22}},
	{name: "index/requests-override", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 300, Seed: 0x63},
		want: Result{MaxLoad: 8, MeanCost: 5.413333333333333, Requests: 300, Escalated: 206, Uncached: 23}},
	{name: "churn/replicas/two-choices", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 45, MeanCost: 5.305908203125, Requests: 4096, Escalated: 2741, Uncached: 22, ChurnEvents: 1481, ChurnSkipped: 55}},
	{name: "churn/replicas/two-choices", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 54, MeanCost: 5.26123046875, Requests: 4096, Escalated: 2737, Uncached: 23, ChurnEvents: 1490, ChurnSkipped: 46}},
	{name: "churn/drift/two-choices", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Churn: ChurnDrift, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 50, MeanCost: 5.249755859375, Requests: 4096, Escalated: 2714, Uncached: 22, ChurnEvents: 1499, ChurnSkipped: 37}},
	{name: "churn/drift/two-choices", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Churn: ChurnDrift, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 46, MeanCost: 5.32470703125, Requests: 4096, Escalated: 2770, Uncached: 23, ChurnEvents: 1507, ChurnSkipped: 29}},
	{name: "churn/replicas/nearest", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 51, MeanCost: 4.757568359375, Requests: 4096, Uncached: 22, ChurnEvents: 1481, ChurnSkipped: 55}},
	{name: "churn/replicas/nearest", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 56, MeanCost: 4.6865234375, Requests: 4096, Uncached: 23, ChurnEvents: 1490, ChurnSkipped: 46}},
	{name: "churn/replicas/oracle", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 42, MeanCost: 5.326904296875, Requests: 4096, Escalated: 2741, Uncached: 22, ChurnEvents: 1481, ChurnSkipped: 55}},
	{name: "churn/replicas/oracle", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 54, MeanCost: 5.255615234375, Requests: 4096, Escalated: 2737, Uncached: 23, ChurnEvents: 1490, ChurnSkipped: 46}},
	{name: "churn/replicas/one-choice", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 50, MeanCost: 5.30078125, Requests: 4096, Escalated: 2741, Uncached: 22, ChurnEvents: 1481, ChurnSkipped: 55}},
	{name: "churn/replicas/one-choice", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 58, MeanCost: 5.246337890625, Requests: 4096, Escalated: 2737, Uncached: 23, ChurnEvents: 1490, ChurnSkipped: 46}},
	{name: "churn/replicas/miss-origin", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissOrigin, Churn: ChurnReplicas, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 42, MeanCost: 0.62060546875, Requests: 4096, Backhaul: 2958, Uncached: 22, ChurnEvents: 1481, ChurnSkipped: 55}},
	{name: "churn/replicas/miss-origin", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissOrigin, Churn: ChurnReplicas, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 45, MeanCost: 0.65673828125, Requests: 4096, Backhaul: 2906, Uncached: 23, ChurnEvents: 1490, ChurnSkipped: 46}},
	{name: "churn/replicas/grid", trial: 0, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 44, MeanCost: 7.08447265625, Requests: 4096, Escalated: 2978, Uncached: 22, ChurnEvents: 1481, ChurnSkipped: 55}},
	{name: "churn/replicas/grid", trial: 1, cfg: Config{Side: 12, Topology: grid.Bounded, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 55, MeanCost: 7.058837890625, Requests: 4096, Escalated: 2938, Uncached: 23, ChurnEvents: 1490, ChurnSkipped: 46}},
	{name: "churn/drift/zipf", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 1.2}, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Churn: ChurnDrift, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 34, MeanCost: 3.18359375, Requests: 4096, Escalated: 840, Uncached: 79, ChurnEvents: 1382, ChurnSkipped: 154}},
	{name: "churn/drift/zipf", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 1.2}, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Churn: ChurnDrift, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 56, MeanCost: 3.354248046875, Requests: 4096, Escalated: 1008, Uncached: 85, ChurnEvents: 1309, ChurnSkipped: 227}},
	{name: "churn/replicas/heavy-rate", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 5, Seed: 0x63},
		want: Result{MaxLoad: 48, MeanCost: 5.3330078125, Requests: 4096, Escalated: 2772, Uncached: 22, ChurnEvents: 14909, ChurnSkipped: 451}},
	{name: "churn/replicas/heavy-rate", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 5, Seed: 0x63},
		want: Result{MaxLoad: 43, MeanCost: 5.2724609375, Requests: 4096, Escalated: 2742, Uncached: 23, ChurnEvents: 14919, ChurnSkipped: 441}},
	{name: "churn/replicas/wor-degenerate", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, PlacementMode: cache.WithoutReplacement, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 53, MeanCost: 5.28857421875, Requests: 4096, Escalated: 2758, Uncached: 22, ChurnEvents: 1495, ChurnSkipped: 41}},
	{name: "churn/replicas/wor-degenerate", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, PlacementMode: cache.WithoutReplacement, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 54, MeanCost: 5.26123046875, Requests: 4096, Escalated: 2737, Uncached: 23, ChurnEvents: 1490, ChurnSkipped: 46}},
	{name: "churn/replicas/beta-d3", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, Choices: 3, Beta: 0.7}, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 46, MeanCost: 5.3134765625, Requests: 4096, Escalated: 2741, Uncached: 22, ChurnEvents: 1481, ChurnSkipped: 55}},
	{name: "churn/replicas/beta-d3", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, Choices: 3, Beta: 0.7}, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 56, MeanCost: 5.26904296875, Requests: 4096, Escalated: 2737, Uncached: 23, ChurnEvents: 1490, ChurnSkipped: 46}},
	{name: "churn/replicas/streaming", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Metrics: MetricsStreaming, Churn: ChurnReplicas, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 45, MeanCost: 5.305908203125, Requests: 4096, Escalated: 2741, Uncached: 22, ChurnEvents: 1481, ChurnSkipped: 55, Streamed: true, HopMax: 12, HopStd: 2.7518313148196554, LoadP99: 43, LinkMaxApprox: 59}},
	{name: "churn/replicas/streaming", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Metrics: MetricsStreaming, Churn: ChurnReplicas, ChurnRate: 0.5, Seed: 0x63},
		want: Result{MaxLoad: 54, MeanCost: 5.26123046875, Requests: 4096, Escalated: 2737, Uncached: 23, ChurnEvents: 1490, ChurnSkipped: 46, Streamed: true, HopMax: 12, HopStd: 2.6955615578113887, LoadP99: 51, LinkMaxApprox: 62}},
	{name: "faults/crash/two-choices", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 67, MeanCost: 4.409912109375, Requests: 4096, Escalated: 2343, Backhaul: 768, Uncached: 22, Faulted: true, FaultEvents: 61, RecoverEvents: 30, DeadNodes: 31, DeadLoad: 920, Retried: 454, Availability: 0.8125}},
	{name: "faults/crash/two-choices", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 69, MeanCost: 4.3662109375, Requests: 4096, Escalated: 2284, Backhaul: 747, Uncached: 23, Faulted: true, FaultEvents: 61, RecoverEvents: 30, DeadNodes: 31, DeadLoad: 928, Retried: 462, Availability: 0.817626953125}},
	{name: "faults/crash/nearest", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 67, MeanCost: 3.986083984375, Requests: 4096, Backhaul: 768, Uncached: 22, Faulted: true, FaultEvents: 61, RecoverEvents: 30, DeadNodes: 31, DeadLoad: 904, Retried: 742, Availability: 0.8125}},
	{name: "faults/crash/nearest", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 69, MeanCost: 3.947265625, Requests: 4096, Backhaul: 747, Uncached: 23, Faulted: true, FaultEvents: 61, RecoverEvents: 30, DeadNodes: 31, DeadLoad: 904, Retried: 698, Availability: 0.817626953125}},
	{name: "faults/crash/oracle", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 67, MeanCost: 4.4111328125, Requests: 4096, Escalated: 2343, Backhaul: 768, Uncached: 22, Faulted: true, FaultEvents: 61, RecoverEvents: 30, DeadNodes: 31, DeadLoad: 918, Retried: 579, Availability: 0.8125}},
	{name: "faults/crash/oracle", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 69, MeanCost: 4.37548828125, Requests: 4096, Escalated: 2284, Backhaul: 747, Uncached: 23, Faulted: true, FaultEvents: 61, RecoverEvents: 30, DeadNodes: 31, DeadLoad: 917, Retried: 576, Availability: 0.817626953125}},
	{name: "faults/crash/heavy-mttr", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsCrash, FaultRate: 0.2, RecoverRate: 0.2, Seed: 0x63},
		want: Result{MaxLoad: 66, MeanCost: 4.51220703125, Requests: 4096, Escalated: 2387, Backhaul: 627, Uncached: 22, Faulted: true, FaultEvents: 432, RecoverEvents: 432, FaultSkipped: 364, DeadLoad: 6144, Availability: 0.846923828125}},
	{name: "faults/crash/heavy-mttr", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsCrash, FaultRate: 0.2, RecoverRate: 0.2, Seed: 0x63},
		want: Result{MaxLoad: 67, MeanCost: 4.505859375, Requests: 4096, Escalated: 2334, Backhaul: 599, Uncached: 23, Faulted: true, FaultEvents: 432, RecoverEvents: 432, FaultSkipped: 364, DeadLoad: 6144, Availability: 0.853759765625}},
	{name: "faults/crash/miss-origin", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissOrigin, Faults: FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 41, MeanCost: 0.5419921875, Requests: 4096, Backhaul: 3111, Uncached: 22, Faulted: true, FaultEvents: 61, RecoverEvents: 30, DeadNodes: 31, DeadLoad: 823, Retried: 130, Availability: 0.240478515625}},
	{name: "faults/crash/miss-origin", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissOrigin, Faults: FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 43, MeanCost: 0.591796875, Requests: 4096, Backhaul: 3031, Uncached: 23, Faulted: true, FaultEvents: 61, RecoverEvents: 30, DeadNodes: 31, DeadLoad: 887, Retried: 147, Availability: 0.260009765625}},
	{name: "faults/crash+churn", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Churn: ChurnReplicas, ChurnRate: 0.5, Faults: FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 48, MeanCost: 4.398193359375, Requests: 4096, Escalated: 2309, Backhaul: 724, Uncached: 22, ChurnEvents: 1481, ChurnSkipped: 55, Faulted: true, FaultEvents: 61, RecoverEvents: 30, DeadNodes: 31, DeadLoad: 905, Retried: 407, Availability: 0.8232421875}},
	{name: "faults/crash+churn", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Churn: ChurnReplicas, ChurnRate: 0.5, Faults: FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 48, MeanCost: 4.419189453125, Requests: 4096, Escalated: 2316, Backhaul: 707, Uncached: 23, ChurnEvents: 1490, ChurnSkipped: 46, Faulted: true, FaultEvents: 61, RecoverEvents: 30, DeadNodes: 31, DeadLoad: 879, Retried: 410, Availability: 0.827392578125}},
	{name: "faults/crash/streaming", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Metrics: MetricsStreaming, Faults: FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 67, MeanCost: 4.409912109375, Requests: 4096, Escalated: 2343, Backhaul: 768, Uncached: 22, Faulted: true, FaultEvents: 61, RecoverEvents: 30, DeadNodes: 31, DeadLoad: 920, Retried: 454, Availability: 0.8125, Streamed: true, HopMax: 12, HopStd: 3.2143891068896284, LoadP99: 55, LinkMaxApprox: 56}},
	{name: "faults/crash/streaming", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Metrics: MetricsStreaming, Faults: FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 69, MeanCost: 4.3662109375, Requests: 4096, Escalated: 2284, Backhaul: 747, Uncached: 23, Faulted: true, FaultEvents: 61, RecoverEvents: 30, DeadNodes: 31, DeadLoad: 928, Retried: 462, Availability: 0.817626953125, Streamed: true, HopMax: 12, HopStd: 3.191513609457571, LoadP99: 61, LinkMaxApprox: 67}},
	{name: "faults/crash/workers2", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01, Workers: 2, Seed: 0x63},
		want: Result{MaxLoad: 62, MeanCost: 4.3359375, Requests: 4096, Escalated: 2262, Backhaul: 803, Uncached: 22, Faulted: true, FaultEvents: 61, RecoverEvents: 30, DeadNodes: 31, DeadLoad: 911, Retried: 462, Availability: 0.803955078125}},
	{name: "faults/crash/workers2", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01, Workers: 2, Seed: 0x63},
		want: Result{MaxLoad: 78, MeanCost: 4.38525390625, Requests: 4096, Escalated: 2281, Backhaul: 755, Uncached: 23, Faulted: true, FaultEvents: 61, RecoverEvents: 30, DeadNodes: 31, DeadLoad: 926, Retried: 482, Availability: 0.815673828125}},
	{name: "faults/regional/two-choices", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsRegional, FaultRate: 0.002, RecoverRate: 0.002, Seed: 0x63},
		want: Result{MaxLoad: 66, MeanCost: 4.469970703125, Requests: 4096, Escalated: 2394, Backhaul: 734, Uncached: 22, Faulted: true, FaultEvents: 5, RecoverEvents: 2, FaultSkipped: 5, DeadNodes: 27, DeadLoad: 587, Retried: 428, Availability: 0.82080078125}},
	{name: "faults/regional/two-choices", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsRegional, FaultRate: 0.002, RecoverRate: 0.002, Seed: 0x63},
		want: Result{MaxLoad: 67, MeanCost: 4.3251953125, Requests: 4096, Escalated: 2277, Backhaul: 797, Uncached: 23, Faulted: true, FaultEvents: 5, RecoverEvents: 2, FaultSkipped: 5, DeadNodes: 27, DeadLoad: 594, Retried: 493, Availability: 0.805419921875}},
	{name: "faults/regional/nearest", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsRegional, FaultRate: 0.002, RecoverRate: 0.002, Seed: 0x63},
		want: Result{MaxLoad: 66, MeanCost: 4.07958984375, Requests: 4096, Backhaul: 734, Uncached: 22, Faulted: true, FaultEvents: 5, RecoverEvents: 2, FaultSkipped: 5, DeadNodes: 27, DeadLoad: 545, Retried: 731, Availability: 0.82080078125}},
	{name: "faults/regional/nearest", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsRegional, FaultRate: 0.002, RecoverRate: 0.002, Seed: 0x63},
		want: Result{MaxLoad: 67, MeanCost: 3.936767578125, Requests: 4096, Backhaul: 797, Uncached: 23, Faulted: true, FaultEvents: 5, RecoverEvents: 2, FaultSkipped: 5, DeadNodes: 27, DeadLoad: 609, Retried: 892, Availability: 0.805419921875}},
	{name: "faults/regional/zipf/heavy", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 1.2}, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsRegional, FaultRate: 0.01, RecoverRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 47, MeanCost: 2.86669921875, Requests: 4096, Escalated: 845, Backhaul: 611, Uncached: 79, Faulted: true, FaultEvents: 17, RecoverEvents: 10, FaultSkipped: 33, DeadNodes: 63, DeadLoad: 2269, Retried: 1113, Availability: 0.850830078125}},
	{name: "faults/regional/zipf/heavy", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 1.2}, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsRegional, FaultRate: 0.01, RecoverRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 77, MeanCost: 3.01513671875, Requests: 4096, Escalated: 939, Backhaul: 577, Uncached: 85, Faulted: true, FaultEvents: 15, RecoverEvents: 10, FaultSkipped: 35, DeadNodes: 45, DeadLoad: 1921, Retried: 862, Availability: 0.859130859375}},
	{name: "hetero/capacity/two-tier/two-choices", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Hetero: HeteroCapacity, Profile: ProfileTwoTier, Seed: 0x63},
		want: Result{MaxLoad: 104, MeanCost: 5.43115234375, Requests: 4096, Escalated: 2879, Uncached: 33}},
	{name: "hetero/capacity/two-tier/two-choices", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Hetero: HeteroCapacity, Profile: ProfileTwoTier, Seed: 0x63},
		want: Result{MaxLoad: 125, MeanCost: 5.436279296875, Requests: 4096, Escalated: 2875, Uncached: 33}},
	{name: "hetero/capacity/power-law/two-choices", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Hetero: HeteroCapacity, Profile: ProfilePowerLaw, Seed: 0x63},
		want: Result{MaxLoad: 186, MeanCost: 5.421630859375, Requests: 4096, Escalated: 2826, Uncached: 33}},
	{name: "hetero/capacity/power-law/two-choices", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Hetero: HeteroCapacity, Profile: ProfilePowerLaw, Seed: 0x63},
		want: Result{MaxLoad: 212, MeanCost: 5.44775390625, Requests: 4096, Escalated: 2850, Uncached: 25}},
	{name: "hetero/capacity/two-tier/nearest", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Requests: 4096, Hetero: HeteroCapacity, Profile: ProfileTwoTier, Seed: 0x63},
		want: Result{MaxLoad: 124, MeanCost: 4.912841796875, Requests: 4096, Uncached: 33}},
	{name: "hetero/capacity/two-tier/nearest", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Requests: 4096, Hetero: HeteroCapacity, Profile: ProfileTwoTier, Seed: 0x63},
		want: Result{MaxLoad: 134, MeanCost: 4.9248046875, Requests: 4096, Uncached: 33}},
	{name: "hetero/capacity/power-law/oracle", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, Requests: 4096, Hetero: HeteroCapacity, Profile: ProfilePowerLaw, Seed: 0x63},
		want: Result{MaxLoad: 168, MeanCost: 5.440185546875, Requests: 4096, Escalated: 2826, Uncached: 33}},
	{name: "hetero/capacity/power-law/oracle", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, Requests: 4096, Hetero: HeteroCapacity, Profile: ProfilePowerLaw, Seed: 0x63},
		want: Result{MaxLoad: 186, MeanCost: 5.44482421875, Requests: 4096, Escalated: 2850, Uncached: 25}},
	{name: "hetero/capacity/two-tier/one-choice", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, Requests: 4096, Hetero: HeteroCapacity, Profile: ProfileTwoTier, Seed: 0x63},
		want: Result{MaxLoad: 116, MeanCost: 5.41015625, Requests: 4096, Escalated: 2879, Uncached: 33}},
	{name: "hetero/capacity/two-tier/one-choice", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, Requests: 4096, Hetero: HeteroCapacity, Profile: ProfileTwoTier, Seed: 0x63},
		want: Result{MaxLoad: 134, MeanCost: 5.472412109375, Requests: 4096, Escalated: 2875, Uncached: 33}},
	{name: "hetero/capacity/two-tier/two-choices/churn-replicas", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 0.5, Hetero: HeteroCapacity, Profile: ProfileTwoTier, Seed: 0x63},
		want: Result{MaxLoad: 87, MeanCost: 5.391845703125, Requests: 4096, Escalated: 2825, Uncached: 33, ChurnEvents: 1482, ChurnSkipped: 54}},
	{name: "hetero/capacity/two-tier/two-choices/churn-replicas", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 0.5, Hetero: HeteroCapacity, Profile: ProfileTwoTier, Seed: 0x63},
		want: Result{MaxLoad: 86, MeanCost: 5.390869140625, Requests: 4096, Escalated: 2867, Uncached: 33, ChurnEvents: 1493, ChurnSkipped: 43}},
	{name: "hetero/capacity/power-law/two-choices/churn-drift", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Churn: ChurnDrift, ChurnRate: 0.5, Hetero: HeteroCapacity, Profile: ProfilePowerLaw, Seed: 0x63},
		want: Result{MaxLoad: 196, MeanCost: 5.35302734375, Requests: 4096, Escalated: 2809, Uncached: 33, ChurnEvents: 1485, ChurnSkipped: 51}},
	{name: "hetero/capacity/power-law/two-choices/churn-drift", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Churn: ChurnDrift, ChurnRate: 0.5, Hetero: HeteroCapacity, Profile: ProfilePowerLaw, Seed: 0x63},
		want: Result{MaxLoad: 192, MeanCost: 5.306884765625, Requests: 4096, Escalated: 2805, Uncached: 25, ChurnEvents: 1489, ChurnSkipped: 47}},
	{name: "hetero/capacity/two-tier/two-choices/faults-crash", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01, Hetero: HeteroCapacity, Profile: ProfileTwoTier, Seed: 0x63},
		want: Result{MaxLoad: 103, MeanCost: 4.095947265625, Requests: 4096, Escalated: 2148, Backhaul: 1056, Uncached: 33, Faulted: true, FaultEvents: 61, RecoverEvents: 30, DeadNodes: 31, DeadLoad: 901, Retried: 342, Availability: 0.7421875}},
	{name: "hetero/capacity/two-tier/two-choices/faults-crash", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01, Hetero: HeteroCapacity, Profile: ProfileTwoTier, Seed: 0x63},
		want: Result{MaxLoad: 102, MeanCost: 4.131591796875, Requests: 4096, Escalated: 2191, Backhaul: 1020, Uncached: 33, Faulted: true, FaultEvents: 61, RecoverEvents: 30, DeadNodes: 31, DeadLoad: 799, Retried: 439, Availability: 0.7509765625}},
	{name: "hetero/capacity/two-tier/two-choices/streaming", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Metrics: MetricsStreaming, Hetero: HeteroCapacity, Profile: ProfileTwoTier, Seed: 0x63},
		want: Result{MaxLoad: 104, MeanCost: 5.43115234375, Requests: 4096, Escalated: 2879, Uncached: 33, Streamed: true, HopMax: 12, HopStd: 2.6887630756367864, LoadP99: 102, LinkMaxApprox: 82}},
	{name: "hetero/capacity/two-tier/two-choices/streaming", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Metrics: MetricsStreaming, Hetero: HeteroCapacity, Profile: ProfileTwoTier, Seed: 0x63},
		want: Result{MaxLoad: 125, MeanCost: 5.436279296875, Requests: 4096, Escalated: 2875, Uncached: 33, Streamed: true, HopMax: 12, HopStd: 2.6973223685850827, LoadP99: 111, LinkMaxApprox: 82}},
	{name: "hetero/arrival/two-tier/two-choices", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Hetero: HeteroArrival, Profile: ProfileTwoTier, ArrivalRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 94, MeanCost: 3.909912109375, Requests: 4096, Escalated: 2074, Backhaul: 1162, Uncached: 52, ArrivalEvents: 30, Vacant: 8}},
	{name: "hetero/arrival/two-tier/two-choices", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Hetero: HeteroArrival, Profile: ProfileTwoTier, ArrivalRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 87, MeanCost: 3.96240234375, Requests: 4096, Escalated: 2107, Backhaul: 1140, Uncached: 48, ArrivalEvents: 30, Vacant: 3}},
	{name: "hetero/arrival/power-law/two-choices", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Hetero: HeteroArrival, Profile: ProfilePowerLaw, ArrivalRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 189, MeanCost: 3.981689453125, Requests: 4096, Escalated: 2139, Backhaul: 1128, Uncached: 49, ArrivalEvents: 30, Vacant: 8}},
	{name: "hetero/arrival/power-law/two-choices", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Hetero: HeteroArrival, Profile: ProfilePowerLaw, ArrivalRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 170, MeanCost: 4.27001953125, Requests: 4096, Escalated: 2265, Backhaul: 806, Uncached: 35, ArrivalEvents: 30, Vacant: 3}},
	{name: "hetero/arrival/power-law/two-choices/churn-replicas", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Churn: ChurnReplicas, ChurnRate: 0.5, Hetero: HeteroArrival, Profile: ProfilePowerLaw, ArrivalRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 218, MeanCost: 4.00390625, Requests: 4096, Escalated: 2124, Backhaul: 1128, Uncached: 49, ChurnEvents: 1270, ChurnSkipped: 266, ArrivalEvents: 30, Vacant: 8}},
	{name: "hetero/arrival/power-law/two-choices/churn-replicas", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Churn: ChurnReplicas, ChurnRate: 0.5, Hetero: HeteroArrival, Profile: ProfilePowerLaw, ArrivalRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 200, MeanCost: 4.39111328125, Requests: 4096, Escalated: 2370, Backhaul: 806, Uncached: 35, ChurnEvents: 1353, ChurnSkipped: 183, ArrivalEvents: 30, Vacant: 3}},
	{name: "hetero/arrival/two-tier/two-choices/faults-crash", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01, Hetero: HeteroArrival, Profile: ProfileTwoTier, ArrivalRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 93, MeanCost: 3.809326171875, Requests: 4096, Escalated: 2040, Backhaul: 1264, Uncached: 52, Faulted: true, FaultEvents: 61, RecoverEvents: 30, DeadNodes: 30, DeadLoad: 915, Retried: 303, Availability: 0.69140625, ArrivalEvents: 30, Vacant: 8}},
	{name: "hetero/arrival/two-tier/two-choices/faults-crash", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Faults: FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01, Hetero: HeteroArrival, Profile: ProfileTwoTier, ArrivalRate: 0.01, Seed: 0x63},
		want: Result{MaxLoad: 102, MeanCost: 3.7841796875, Requests: 4096, Escalated: 2034, Backhaul: 1284, Uncached: 48, Faulted: true, FaultEvents: 61, RecoverEvents: 30, DeadNodes: 28, DeadLoad: 886, Retried: 348, Availability: 0.6865234375, ArrivalEvents: 30, Vacant: 3}},
	{name: "hetero/capacity/two-tier/two-choices/sharded-p4", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Hetero: HeteroCapacity, Profile: ProfileTwoTier, Workers: 4, Seed: 0x63},
		want: Result{MaxLoad: 107, MeanCost: 5.364013671875, Requests: 4096, Escalated: 2798, Uncached: 33}},
	{name: "hetero/capacity/two-tier/two-choices/sharded-p4", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Hetero: HeteroCapacity, Profile: ProfileTwoTier, Workers: 4, Seed: 0x63},
		want: Result{MaxLoad: 105, MeanCost: 5.30322265625, Requests: 4096, Escalated: 2769, Uncached: 33}},
	{name: "hetero/arrival/power-law/two-choices/sharded-p4", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Hetero: HeteroArrival, Profile: ProfilePowerLaw, ArrivalRate: 0.01, Workers: 4, Seed: 0x63},
		want: Result{MaxLoad: 177, MeanCost: 3.936279296875, Requests: 4096, Escalated: 2109, Backhaul: 1152, Uncached: 49, ArrivalEvents: 30, Vacant: 8}},
	{name: "hetero/arrival/power-law/two-choices/sharded-p4", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Hetero: HeteroArrival, Profile: ProfilePowerLaw, ArrivalRate: 0.01, Workers: 4, Seed: 0x63},
		want: Result{MaxLoad: 182, MeanCost: 4.35400390625, Requests: 4096, Escalated: 2314, Backhaul: 790, Uncached: 35, ArrivalEvents: 30, Vacant: 3}},
	{name: "sharded/nearest/resample", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: Nearest, Radius: 3}, Requests: 4096, Workers: 4, Seed: 0x71},
		want: Result{MaxLoad: 78, MeanCost: 3.08935546875, Requests: 4096, Uncached: 62}},
	{name: "sharded/nearest/escalate", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: Nearest, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Workers: 4, Seed: 0x71},
		want: Result{MaxLoad: 71, MeanCost: 2.6318359375, Requests: 4096, Backhaul: 651, Uncached: 62}},
	{name: "sharded/nearest/origin", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: Nearest, Radius: 3}, Requests: 4096, MissPolicy: MissOrigin, Workers: 4, Seed: 0x71},
		want: Result{MaxLoad: 71, MeanCost: 2.6318359375, Requests: 4096, Backhaul: 651, Uncached: 62}},
	{name: "sharded/two-choices/resample", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Workers: 4, Seed: 0x71},
		want: Result{MaxLoad: 69, MeanCost: 3.826904296875, Requests: 4096, Escalated: 1438, Uncached: 62}},
	{name: "sharded/two-choices/escalate", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Workers: 4, Seed: 0x71},
		want: Result{MaxLoad: 67, MeanCost: 3.278076171875, Requests: 4096, Escalated: 1241, Backhaul: 651, Uncached: 62}},
	{name: "sharded/two-choices/origin", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, MissPolicy: MissOrigin, Workers: 4, Seed: 0x71},
		want: Result{MaxLoad: 50, MeanCost: 1.23583984375, Requests: 4096, Backhaul: 1892, Uncached: 62}},
	{name: "sharded/one-choice/resample", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, Requests: 4096, Workers: 4, Seed: 0x71},
		want: Result{MaxLoad: 76, MeanCost: 3.827392578125, Requests: 4096, Escalated: 1438, Uncached: 62}},
	{name: "sharded/one-choice/escalate", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Workers: 4, Seed: 0x71},
		want: Result{MaxLoad: 70, MeanCost: 3.26611328125, Requests: 4096, Escalated: 1241, Backhaul: 651, Uncached: 62}},
	{name: "sharded/one-choice/origin", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}, Requests: 4096, MissPolicy: MissOrigin, Workers: 4, Seed: 0x71},
		want: Result{MaxLoad: 69, MeanCost: 1.22509765625, Requests: 4096, Backhaul: 1892, Uncached: 62}},
	{name: "sharded/oracle/resample", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, Requests: 4096, Workers: 4, Seed: 0x71},
		want: Result{MaxLoad: 66, MeanCost: 3.830810546875, Requests: 4096, Escalated: 1438, Uncached: 62}},
	{name: "sharded/oracle/escalate", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, Requests: 4096, MissPolicy: MissEscalate, Workers: 4, Seed: 0x71},
		want: Result{MaxLoad: 58, MeanCost: 3.311279296875, Requests: 4096, Escalated: 1241, Backhaul: 651, Uncached: 62}},
	{name: "sharded/oracle/origin", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: Oracle, Radius: 3}, Requests: 4096, MissPolicy: MissOrigin, Workers: 4, Seed: 0x71},
		want: Result{MaxLoad: 50, MeanCost: 1.22900390625, Requests: 4096, Backhaul: 1892, Uncached: 62}},
	{name: "sharded/churn-replicas/two-choices", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Churn: ChurnReplicas, ChurnRate: 0.5, Workers: 4, Seed: 0x71},
		want: Result{MaxLoad: 48, MeanCost: 3.970947265625, Requests: 4096, Escalated: 1567, Uncached: 50, ChurnEvents: 1394, ChurnSkipped: 142}},
	{name: "sharded/churn-drift/two-choices", trial: 1, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Churn: ChurnDrift, ChurnRate: 0.5, Workers: 4, Seed: 0x71},
		want: Result{MaxLoad: 42, MeanCost: 3.983154296875, Requests: 4096, Escalated: 1555, Uncached: 50, ChurnEvents: 1456, ChurnSkipped: 80}},
	{name: "sharded/streaming/two-choices", trial: 2, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Metrics: MetricsStreaming, Workers: 4, Seed: 0x71},
		want: Result{MaxLoad: 75, MeanCost: 3.896240234375, Requests: 4096, Escalated: 1486, Uncached: 58, Streamed: true, HopMax: 12, HopStd: 2.5839224000305387, LoadP99: 53, LinkMaxApprox: 53}},
	{name: "sharded/links/two-choices", trial: 2, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Metrics: MetricsLinks, Workers: 4, Seed: 0x71},
		want: Result{MaxLoad: 75, MeanCost: 3.896240234375, Requests: 4096, Escalated: 1486, Uncached: 58, MaxLinkLoad: 53, LinkCongestion: 1.9129018108904075}},
	{name: "sharded/chunk256/two-choices", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}, Requests: 4096, Workers: 4, Chunk: 256, Seed: 0x71},
		want: Result{MaxLoad: 66, MeanCost: 3.829833984375, Requests: 4096, Escalated: 1438, Uncached: 62}},
	{name: "sharded/beta0.5/two-choices", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3, Beta: 0.5}, Requests: 4096, Workers: 4, Seed: 0x71},
		want: Result{MaxLoad: 73, MeanCost: 3.83544921875, Requests: 4096, Escalated: 1438, Uncached: 62}},
	{name: "sharded/d3-wor/two-choices", trial: 0, cfg: Config{Side: 12, K: 150, M: 2, Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9}, Strategy: StrategySpec{Kind: TwoChoices, Radius: 4, Choices: 3, WithoutReplacement: true}, Requests: 4096, Workers: 4, Seed: 0x71},
		want: Result{MaxLoad: 71, MeanCost: 3.96142578125, Requests: 4096, Escalated: 966, Uncached: 62}},
}
