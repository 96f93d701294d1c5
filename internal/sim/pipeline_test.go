package sim

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/stats"
)

// pipelineMatrix is the strategy × miss-policy grid the pipeline
// invariance tests sweep (torus; the topology dimension is covered by the
// golden table).
func pipelineMatrix() []Config {
	var cfgs []Config
	for _, kind := range []StrategyKind{Nearest, TwoChoices, OneChoiceRandom, Oracle} {
		for _, mp := range []MissPolicy{MissResample, MissEscalate, MissOrigin} {
			cfgs = append(cfgs, Config{
				Side: 10, K: 120, M: 2, Seed: 77, MissPolicy: mp,
				Strategy: StrategySpec{Kind: kind, Radius: 3},
			})
		}
	}
	return cfgs
}

// compileChunked compiles cfg with a forced pipeline chunk size.
func compileChunked(t *testing.T, cfg Config, chunk int) *World {
	t.Helper()
	w, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.chunk = chunk
	return w
}

// TestPipelineChunkInvariance: a trial's result must not depend on how the
// request block is partitioned into pipeline chunks, because each role's
// stream (origins, files, assignment) is consumed in sequential order
// regardless of batch boundaries (the RequestBatch property lifted to the
// whole engine).
func TestPipelineChunkInvariance(t *testing.T) {
	for _, cfg := range pipelineMatrix() {
		want := compileChunked(t, cfg, 1).NewRunner().RunTrial(0)
		for _, chunk := range []int{3, 17, 64, defaultChunk} {
			got := compileChunked(t, cfg, chunk).NewRunner().RunTrial(0)
			if got != want {
				t.Fatalf("%s/%s chunk=%d: %+v != chunk=1 %+v",
					cfg.Strategy.Kind, cfg.MissPolicy, chunk, got, want)
			}
		}
	}
}

// TestSplitStreamsDeterministic: the split request streams honour the
// determinism contract — reused runner, fresh runner and pooled
// World.RunTrial agree, and reruns reproduce.
func TestSplitStreamsDeterministic(t *testing.T) {
	for _, cfg := range pipelineMatrix() {
		w, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reused := w.NewRunner()
		for trial := uint64(0); trial < 3; trial++ {
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

// TestMetricsModesAgreeOnScalars: the instrumentation knob must be purely
// additive — scalar, links and streaming modes report identical
// Definition 1 scalars for identical (cfg, trial) pairs. Only the links
// mode counts links: a streaming runner holds no link vector, which is
// what keeps its memory flat at any world size.
func TestMetricsModesAgreeOnScalars(t *testing.T) {
	for _, cfg := range pipelineMatrix() {
		want, err := RunTrial(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []MetricsMode{MetricsLinks, MetricsStreaming} {
			mcfg := cfg
			mcfg.Metrics = mode
			w, err := Compile(mcfg)
			if err != nil {
				t.Fatal(err)
			}
			r := w.NewRunner()
			got := r.RunTrial(1)
			if counts := mode == MetricsLinks; (r.links != nil) != counts || (got.MaxLinkLoad > 0) != counts || (got.LinkCongestion > 0) != counts {
				t.Fatalf("%s/%s metrics=%s: link vector held %v, link load %d / %v",
					cfg.Strategy.Kind, cfg.MissPolicy, mode, r.links != nil, got.MaxLinkLoad, got.LinkCongestion)
			}
			// Blank the mode-specific extras; the scalars must match.
			got.MaxLinkLoad, got.LinkCongestion = 0, 0
			got.Streamed, got.HopMax, got.HopStd, got.LoadP99 = false, 0, 0, 0
			if got != want {
				t.Fatalf("%s/%s metrics=%s: scalars %+v != %+v",
					cfg.Strategy.Kind, cfg.MissPolicy, mode, got, want)
			}
		}
	}
}

// TestStreamingMetricsMatchSequentialOracle verifies the streaming
// extras against an independent unchunked replay of the same trial: the
// plain sequential loop records every per-request hop count and every
// final node load, and the streaming accumulators must agree exactly
// (same observation order → identical Welford bits; nearest-rank quantile
// against a full sort).
func TestStreamingMetricsMatchSequentialOracle(t *testing.T) {
	cfg := Config{Side: 11, K: 90, M: 2, Seed: 13, Metrics: MetricsStreaming,
		Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}}
	const trial = 2
	got, err := RunTrial(cfg, trial)
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: an unchunked sequential loop over the same world state and
	// streams.
	oracle := cfg
	oracle.Metrics = MetricsScalar
	w, err := Compile(oracle)
	if err != nil {
		t.Fatal(err)
	}
	r := w.NewRunner()
	r.arm(trial) // places and conditions the file sampler
	strat := r.bind(nil)
	sampler := r.pop
	originRNG, fileRNG := w.RequestStream(trial)
	assignRNG := r.assign.stream(w.assignSrc, trial)
	r.loads.Reset()
	var hopMoments stats.Summary // Welford, as the streaming accumulator folds
	hopSum := 0.0                // plain running sum, as MeanCost folds
	hopMax := 0
	for i := 0; i < w.nReq; i++ {
		var origin, file [1]int32
		dist.RequestBatch(originRNG, fileRNG, w.g.N(), sampler, origin[:], file[:])
		a := strat.Assign(core.Request{Origin: origin[0], File: file[0]}, r.loads, assignRNG)
		r.loads.Add(int(a.Server))
		hopMoments.Add(float64(a.Hops))
		hopSum += float64(a.Hops)
		if int(a.Hops) > hopMax {
			hopMax = int(a.Hops)
		}
	}
	loads := make([]int, w.g.N())
	for u := range loads {
		loads[u] = r.loads.Load(u)
	}
	sort.Ints(loads)
	p99 := loads[int(math.Ceil(0.99*float64(len(loads))))-1]

	if got.HopMax != hopMax {
		t.Errorf("HopMax = %d, oracle %d", got.HopMax, hopMax)
	}
	if got.HopStd != hopMoments.Std() {
		t.Errorf("HopStd = %v, oracle %v", got.HopStd, hopMoments.Std())
	}
	if got.MeanCost != hopSum/float64(w.nReq) {
		t.Errorf("MeanCost = %v, oracle %v", got.MeanCost, hopSum/float64(w.nReq))
	}
	if got.LoadP99 != p99 {
		t.Errorf("LoadP99 = %d, oracle %d", got.LoadP99, p99)
	}
	if got.HopMax == 0 || got.LoadP99 == 0 {
		t.Fatalf("streaming extras not populated: %+v", got)
	}
}

// TestStreamingMetricsAcrossMatrix smoke-checks the streaming extras'
// internal consistency on every strategy × miss-policy combination.
func TestStreamingMetricsAcrossMatrix(t *testing.T) {
	for _, base := range pipelineMatrix() {
		cfg := base
		cfg.Metrics = MetricsStreaming
		res, err := RunTrial(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.HopMax) < res.MeanCost {
			t.Errorf("%s/%s: HopMax %d below mean cost %v", cfg.Strategy.Kind, cfg.MissPolicy, res.HopMax, res.MeanCost)
		}
		if res.LoadP99 > res.MaxLoad {
			t.Errorf("%s/%s: LoadP99 %d exceeds MaxLoad %d", cfg.Strategy.Kind, cfg.MissPolicy, res.LoadP99, res.MaxLoad)
		}
		if res.HopStd < 0 {
			t.Errorf("%s/%s: negative HopStd %v", cfg.Strategy.Kind, cfg.MissPolicy, res.HopStd)
		}
	}
}

// TestStreamingLoadQuantileHeavyLoad: the load histogram must scale with
// the mean per-node load so heavy-load regimes (Requests ≫ n) report
// exact quantiles instead of clamping at the baseline bound.
func TestStreamingLoadQuantileHeavyLoad(t *testing.T) {
	cfg := Config{Side: 5, K: 20, M: 4, Seed: 2, Requests: 200_000,
		Metrics:  MetricsStreaming,
		Strategy: StrategySpec{Kind: TwoChoices, Radius: core.RadiusUnbounded}}
	res, err := RunTrial(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(cfg.Requests) / 25 // 8000 requests per node
	if float64(res.LoadP99) < mean || res.LoadP99 > res.MaxLoad {
		t.Fatalf("LoadP99 = %d implausible for mean load %.0f (max %d) — histogram clamped?",
			res.LoadP99, mean, res.MaxLoad)
	}
}

// TestStreamingExtrasSurviveZeroHops: a trial where every request is
// served at its origin (full library on every node) has HopMax = 0, yet
// its streaming extras are real data and must flow into the aggregate.
func TestStreamingExtrasSurviveZeroHops(t *testing.T) {
	cfg := Config{Side: 5, K: 4, M: 64, Seed: 3, Metrics: MetricsStreaming,
		Strategy: StrategySpec{Kind: Nearest}}
	res, err := RunTrial(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Streamed {
		t.Fatal("Streamed not set in MetricsStreaming mode")
	}
	if res.HopMax != 0 || res.MeanCost != 0 {
		t.Fatalf("expected an all-local trial, got %+v", res)
	}
	if res.LoadP99 < 1 {
		t.Fatalf("LoadP99 = %d, want >= 1 with n requests over n nodes", res.LoadP99)
	}
	var agg Aggregate
	agg.Add(res)
	if agg.LoadP99.N() != 1 || agg.HopMax.N() != 1 {
		t.Fatalf("zero-hop streaming trial dropped from aggregate: %+v", agg)
	}
}

// TestMetricsStreamsValidation covers the metrics knob's validation and
// the retired Streams knob, which accepts only its zero value.
func TestMetricsStreamsValidation(t *testing.T) {
	base := Config{Side: 5, K: 10, M: 1}
	bad := base
	bad.Metrics = MetricsMode(9)
	if _, err := Compile(bad); err == nil {
		t.Error("unknown metrics mode accepted")
	}
	for _, s := range []Streams{1, -1, 9} {
		bad = base
		bad.Streams = s
		if _, err := Compile(bad); err == nil {
			t.Errorf("retired streams value %d accepted", s)
		}
	}
	ok := base
	ok.Streams = StreamsSplit
	if _, err := Compile(ok); err != nil {
		t.Errorf("StreamsSplit rejected: %v", err)
	}
}

// TestRunTrialSteadyStateAllocs is the allocation-free contract of the
// request engine at the paper-scale acceptance point (MissResample with
// uncached files every trial, so the conditioned sampler is rebuilt into
// the arenas each time): a warmed Runner allocates nothing per trial, and
// the pooled World.RunTrial convenience stays ≤ 1 alloc/op. The streaming
// metrics mode and the nearest-replica scan are held to the same bar.
func TestRunTrialSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and disables pool caching")
	}
	for _, variant := range []struct {
		name string
		mut  func(*Config)
	}{
		{"scalar", func(*Config) {}},
		{"streaming", func(c *Config) { c.Metrics = MetricsStreaming }},
		{"nearest-scalar", func(c *Config) { c.Strategy = StrategySpec{Kind: Nearest} }},
		// Bounded grids have no BallTable, so dense files enumerate the
		// ball through grid.Ball on every request.
		{"bounded", func(c *Config) { c.Topology = grid.Bounded }},
	} {
		cfg := paperScaleCfg()
		variant.mut(&cfg)
		w, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := w.NewRunner()
		if res := r.RunTrial(0); res.Uncached == 0 {
			t.Fatalf("%s: paper-scale point leaves no uncached files; conditioned-sampler path not exercised", variant.name)
		}
		r.RunTrial(1) // second warm-up: buffers at steady-state size
		trial := uint64(2)
		if n := testing.AllocsPerRun(3, func() {
			r.RunTrial(trial)
			trial++
		}); n != 0 {
			t.Errorf("%s: steady-state Runner.RunTrial allocates %.1f/op, want 0", variant.name, n)
		}
		w.RunTrial(trial) // warm the pool
		if n := testing.AllocsPerRun(3, func() {
			w.RunTrial(trial)
			trial++
		}); n > 1 {
			t.Errorf("%s: pooled World.RunTrial allocates %.1f/op, want <= 1", variant.name, n)
		}
	}
}

// TestChunkBuffersSizedToRequests: tiny request counts must not pin
// full-chunk buffers, and requests > chunk must still produce the same
// totals (covered above); here we check the boundary bookkeeping.
func TestChunkBuffersSizedToRequests(t *testing.T) {
	cfg := Config{Side: 6, K: 20, M: 1, Requests: 5,
		Strategy: StrategySpec{Kind: Nearest}}
	w, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := w.NewRunner()
	if len(r.origins) != 5 {
		t.Fatalf("chunk buffer length %d, want 5", len(r.origins))
	}
	if res := r.RunTrial(0); res.Requests != 5 {
		t.Fatalf("Requests = %d, want 5", res.Requests)
	}
}

// TestWideWorldStreamingTrial is a scaled-down widegrid acceptance check
// that still crosses multiple chunk boundaries and runs both strategies
// with streaming metrics on a torus larger than every
// paper figure; the full Side=1000 (n=10⁶) point runs in
// BenchmarkWideWorldTrial and the widegrid experiment's paper preset.
func TestWideWorldStreamingTrial(t *testing.T) {
	side := 120
	if testing.Short() {
		side = 60
	}
	for _, kind := range []StrategyKind{Nearest, TwoChoices} {
		cfg := Config{
			Side: side, K: 4000, M: 4, Seed: 9,
			Strategy: StrategySpec{Kind: kind, Radius: 16},
			Metrics:  MetricsStreaming,
		}
		w, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := w.NewRunner()
		res := r.RunTrial(0)
		if res.Requests != side*side || res.MaxLoad == 0 || res.HopMax == 0 {
			t.Fatalf("%s: implausible wide trial %+v", kind, res)
		}
		if !raceEnabled {
			if n := testing.AllocsPerRun(2, func() { r.RunTrial(1) }); n != 0 {
				t.Errorf("%s: wide streaming trial allocates %.1f/op, want 0", kind, n)
			}
		}
	}
}
