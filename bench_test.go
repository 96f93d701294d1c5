package repro_test

// bench_test.go regenerates every table and figure of the paper's
// evaluation as testing.B benchmarks, plus ablation benches for the
// design choices called out in DESIGN.md §4 (search procedures, candidate
// sampling, miss policies, the choice count d).
//
// Each BenchmarkFigureN iteration executes the figure's full parameter
// sweep at a reduced trial count; run with -benchtime=1x for a single
// regeneration, or use cmd/figures for CSV output at any preset.

import (
	"testing"

	"repro"
	"repro/internal/experiments"
)

// benchOpt keeps one benchmark iteration to a few seconds while exercising
// the exact code paths of the paper-scale runs.
var benchOpt = experiments.Options{Trials: 3, Seed: 2017}

func benchTable(b *testing.B, run func(experiments.Options) (*experiments.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := run(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Series) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure1 regenerates Fig. 1 (Strategy I max load vs n).
func BenchmarkFigure1(b *testing.B) { benchTable(b, experiments.Figure1) }

// BenchmarkFigure2 regenerates Fig. 2 (Strategy I cost vs cache size).
func BenchmarkFigure2(b *testing.B) { benchTable(b, experiments.Figure2) }

// BenchmarkFigure3And4 regenerates Figs. 3 and 4 from shared simulations
// (Strategy II at r=∞: max load and cost vs n up to 1.2e5 servers).
func BenchmarkFigure3And4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, c, err := experiments.Figure34(experiments.Options{Trials: 1, Seed: 2017})
		if err != nil {
			b.Fatal(err)
		}
		if len(l.Series) == 0 || len(c.Series) == 0 {
			b.Fatal("empty tables")
		}
	}
}

// BenchmarkFigure5 regenerates Fig. 5 (max load vs cost trade-off).
func BenchmarkFigure5(b *testing.B) { benchTable(b, experiments.Figure5) }

// BenchmarkZipfCostTable regenerates the Theorem 3 / Eq. (1) Zipf table.
func BenchmarkZipfCostTable(b *testing.B) { benchTable(b, experiments.ZipfCostTable) }

// BenchmarkUniformCostLaw regenerates the C = Θ(√(K/M)) validation.
func BenchmarkUniformCostLaw(b *testing.B) { benchTable(b, experiments.UniformCostLaw) }

// BenchmarkTheorem12Fit regenerates the Θ(log n) fits (Theorems 1-2).
func BenchmarkTheorem12Fit(b *testing.B) { benchTable(b, experiments.Theorem12Fit) }

// BenchmarkTheorem4Regimes regenerates the α+2β threshold study (Thm 4).
func BenchmarkTheorem4Regimes(b *testing.B) { benchTable(b, experiments.Theorem4Regimes) }

// BenchmarkLemma1Cells regenerates the Voronoi max-cell study (Lemma 1).
func BenchmarkLemma1Cells(b *testing.B) { benchTable(b, experiments.Lemma1Cells) }

// BenchmarkConfigGraphStats regenerates the H-regularity study (Lemma 3).
func BenchmarkConfigGraphStats(b *testing.B) {
	benchTable(b, experiments.ConfigGraphStats)
}

// BenchmarkExample3 regenerates the disjoint-subproblem study (Example 3).
func BenchmarkExample3(b *testing.B) { benchTable(b, experiments.Example3Study) }

// BenchmarkSupermarket regenerates the §VI queueing-conjecture study.
func BenchmarkSupermarket(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Supermarket(experiments.Options{Trials: 1, Seed: 2017})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Series) == 0 {
			b.Fatal("empty table")
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md §4): same workload, alternative mechanism.
// ---------------------------------------------------------------------------

// nearestWorldCfg is a Fig. 2-like workload (n=2025, K=2000, M=1): sparse
// replication where the nearest-replica search procedure matters most.
func nearestWorldCfg(kind repro.StrategySpec) repro.Config {
	return repro.Config{Side: 45, K: 2000, M: 1, Strategy: kind, Seed: 7}
}

// BenchmarkAblationNearestAdaptive measures Strategy I with the adaptive
// search (production default).
func BenchmarkAblationNearestAdaptive(b *testing.B) {
	cfg := nearestWorldCfg(repro.StrategySpec{Kind: repro.Nearest})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := repro.RunTrial(cfg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTwoChoiceExact measures the exact in-ball candidate
// list on a dense-replica world: the oracle materializes it through the
// tile index for every request, where Strategy II samples it.
func BenchmarkAblationTwoChoiceExact(b *testing.B) {
	cfg := repro.Config{Side: 45, K: 100, M: 20, Seed: 7,
		Strategy: repro.StrategySpec{Kind: repro.Oracle, Radius: 8}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := repro.RunTrial(cfg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMissPolicies measures the three miss policies on a
// miss-heavy world (K >> nM).
func BenchmarkAblationMissPolicies(b *testing.B) {
	for _, mp := range []repro.MissPolicy{repro.MissResample, repro.MissEscalate, repro.MissOrigin} {
		b.Run(mp.String(), func(b *testing.B) {
			cfg := repro.Config{Side: 31, K: 4000, M: 1, MissPolicy: mp, Seed: 7,
				Strategy: repro.StrategySpec{Kind: repro.TwoChoices, Radius: 5}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := repro.RunTrial(cfg, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationChoices sweeps d to show diminishing returns beyond
// d = 2 (the classical two-choices phenomenon).
func BenchmarkAblationChoices(b *testing.B) {
	for _, d := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "d=1", 2: "d=2", 4: "d=4"}[d], func(b *testing.B) {
			cfg := repro.Config{Side: 45, K: 200, M: 10, Seed: 7,
				Strategy: repro.StrategySpec{Kind: repro.TwoChoices, Radius: repro.RadiusUnbounded, Choices: d}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := repro.RunTrial(cfg, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrialLargestScale measures one Fig. 3 trial at the paper's
// largest point (n ≈ 1.2e5, M = 100) — the library's heaviest single run.
func BenchmarkTrialLargestScale(b *testing.B) {
	cfg := repro.Config{Side: 346, K: 2000, M: 100, Seed: 7,
		Strategy: repro.StrategySpec{Kind: repro.TwoChoices, Radius: repro.RadiusUnbounded}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := repro.RunTrial(cfg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPopularityDrift regenerates the dynamic-popularity study.
func BenchmarkPopularityDrift(b *testing.B) { benchTable(b, experiments.PopularityDrift) }

// BenchmarkDirectoryOverhead regenerates the DHT control-cost study.
func BenchmarkDirectoryOverhead(b *testing.B) { benchTable(b, experiments.DirectoryOverhead) }

// BenchmarkHeavyLoad regenerates the heavily-loaded-case study.
func BenchmarkHeavyLoad(b *testing.B) { benchTable(b, experiments.HeavyLoad) }

// BenchmarkPlacementPolicies regenerates the placement-policy ablation.
func BenchmarkPlacementPolicies(b *testing.B) { benchTable(b, experiments.PlacementPolicies) }

// BenchmarkLinkCongestion regenerates the wire-congestion study.
func BenchmarkLinkCongestion(b *testing.B) { benchTable(b, experiments.LinkCongestion) }

// BenchmarkBetaChoice regenerates the (1+β)-choice sweep.
func BenchmarkBetaChoice(b *testing.B) { benchTable(b, experiments.BetaChoice) }
