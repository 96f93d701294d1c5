package sim

import (
	"testing"

	"repro/internal/cache"
)

// TestIndexTilesDeterministic: the tile-index ladder is a first-class
// citizen of the determinism contract — reused runner, fresh runner and
// pooled World.RunTrial agree, and reruns reproduce — across the
// strategy × miss-policy matrix.
func TestIndexTilesDeterministic(t *testing.T) {
	for _, cfg := range pipelineMatrix() {
		w, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, indexed := indexedRadius(cfg, w.g); indexed != (w.tiling != nil) {
			t.Fatalf("%s: tiling built = %v, want %v", cfg.Strategy.Kind, w.tiling != nil, indexed)
		}
		reused := w.NewRunner()
		for trial := uint64(0); trial < 2; trial++ {
			want := reused.RunTrial(trial)
			if got := w.NewRunner().RunTrial(trial); got != want {
				t.Fatalf("%s/%s t=%d: fresh runner %+v != reused %+v",
					cfg.Strategy.Kind, cfg.MissPolicy, trial, got, want)
			}
			if got := w.RunTrial(trial); got != want {
				t.Fatalf("%s/%s t=%d: pooled %+v != reused %+v",
					cfg.Strategy.Kind, cfg.MissPolicy, trial, got, want)
			}
			if got := reused.RunTrial(trial); got != want {
				t.Fatalf("%s/%s t=%d: rerun %+v != first %+v",
					cfg.Strategy.Kind, cfg.MissPolicy, trial, got, want)
			}
		}
	}
}

// TestIndexTilesNoOpWithoutBoundedRadius: for Nearest and for unbounded
// radii the index has nothing to serve, so Compile builds no tiling and
// the trial is bit-identical to one whose placements carry no index at
// all.
func TestIndexTilesNoOpWithoutBoundedRadius(t *testing.T) {
	for _, cfg := range []Config{
		{Side: 10, K: 120, M: 2, Seed: 4, Strategy: StrategySpec{Kind: Nearest}},
		{Side: 10, K: 120, M: 2, Seed: 4, Strategy: StrategySpec{Kind: TwoChoices, Radius: -1}},
		{Side: 10, K: 120, M: 2, Seed: 4, Strategy: StrategySpec{Kind: TwoChoices, Radius: 99}},
		{Side: 10, K: 120, M: 2, Seed: 4, Strategy: StrategySpec{Kind: Oracle, Radius: -1}},
	} {
		w, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if w.tiling != nil {
			t.Fatalf("%s r=%d: tiling built for a configuration the index cannot serve",
				cfg.Strategy.Kind, cfg.Strategy.Radius)
		}
		if got, want := w.RunTrial(0), exactLadderRunner(w).RunTrial(0); got != want {
			t.Fatalf("%s r=%d: trial depends on the absent index:\n got %+v\nwant %+v",
				cfg.Strategy.Kind, cfg.Strategy.Radius, got, want)
		}
	}
}

// exactLadderRunner returns a runner of w whose placements carry no tile
// index, so bounded-radius choice strategies fall back to the exact
// filter (the core package's path for placements without a TileIndex).
// It is marked pooled so it keeps its one trial state: a Runner that
// arms ahead swaps in a spare state built with the world's tiled Placer.
func exactLadderRunner(w *World) *Runner {
	r := w.NewRunner()
	r.placer = cache.NewPlacer(w.g.N(), w.cfg.M, w.cfg.K)
	r.pooled = true
	return r
}

// TestIndexValidationAndParse: the retired Index knob accepts only its
// zero value, IndexTiles.
func TestIndexValidationAndParse(t *testing.T) {
	for _, m := range []IndexMode{1, -1, 9} {
		bad := Config{Side: 5, K: 10, M: 1, Index: m}
		if _, err := Compile(bad); err == nil {
			t.Errorf("retired index mode %d accepted", m)
		}
	}
	if _, err := Compile(Config{Side: 5, K: 10, M: 1, Index: IndexTiles}); err != nil {
		t.Errorf("IndexTiles rejected: %v", err)
	}
}

// TestIndexTilesScalarsPlausible: the tile index changes trajectories,
// not distributions, so per-trial scalars must stay in the same regime
// as the exact-filter ladder over a small batch.
func TestIndexTilesScalarsPlausible(t *testing.T) {
	cfg := Config{Side: 20, K: 300, M: 3, Seed: 11,
		Strategy: StrategySpec{Kind: TwoChoices, Radius: 4}}
	w, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact, tiles := exactLadderRunner(w), w.NewRunner()
	var plain, indexed Aggregate
	for trial := uint64(0); trial < 20; trial++ {
		plain.Add(exact.RunTrial(trial))
		if exact.p.TileIndex() != nil {
			t.Fatalf("trial %d: the exact-ladder runner ran on a tiled placement", trial)
		}
		indexed.Add(tiles.RunTrial(trial))
	}
	// Means within 4 pooled standard errors; the escalation fraction is
	// RNG-free given the placement and the request streams, which both
	// ladders share, so it must match exactly.
	if d := plain.MaxLoad.Mean() - indexed.MaxLoad.Mean(); d > 4*(plain.MaxLoad.SE()+indexed.MaxLoad.SE())+1e-9 || -d > 4*(plain.MaxLoad.SE()+indexed.MaxLoad.SE())+1e-9 {
		t.Errorf("max-load means diverge: %v vs %v", plain.MaxLoad.Mean(), indexed.MaxLoad.Mean())
	}
	if plain.Escalated.Mean() != indexed.Escalated.Mean() {
		t.Errorf("escalation fractions diverge: %v vs %v (placement-determined, must be exact)",
			plain.Escalated.Mean(), indexed.Escalated.Mean())
	}
}

// TestWideWorldIndexedTrial is the scaled-down widegrid acceptance check
// under the tile index: multiple chunk boundaries, streaming metrics,
// allocation-free steady state.
func TestWideWorldIndexedTrial(t *testing.T) {
	side := 120
	if testing.Short() {
		side = 60
	}
	cfg := Config{
		Side: side, K: 4000, M: 4, Seed: 9,
		Strategy: StrategySpec{Kind: TwoChoices, Radius: 16},
		Metrics:  MetricsStreaming,
	}
	w, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := w.NewRunner()
	res := r.RunTrial(0)
	if res.Requests != side*side || res.MaxLoad == 0 || res.HopMax == 0 {
		t.Fatalf("implausible wide indexed trial %+v", res)
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(2, func() { r.RunTrial(1) }); n != 0 {
			t.Errorf("wide indexed trial allocates %.1f/op, want 0", n)
		}
	}
}
