package sim

import (
	"fmt"
	"strings"
	"testing"
)

// shardMatrix spans the discipline surface of the sharded engine:
// strategies × miss policies, plus churn and metrics variants, at a
// scale with several chunks per trial so the barrier machinery is
// exercised.
func shardMatrix() []Config {
	base := Config{
		Side: 10, K: 120, M: 2,
		Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9},
		Requests:   4096,
		Seed:       0x5eed,
	}
	var cfgs []Config
	for _, sk := range []StrategyKind{Nearest, TwoChoices, OneChoiceRandom, Oracle} {
		for _, mp := range []MissPolicy{MissResample, MissEscalate, MissOrigin} {
			cfg := base
			cfg.Strategy = StrategySpec{Kind: sk, Radius: 3}
			cfg.MissPolicy = mp
			cfgs = append(cfgs, cfg)
		}
	}
	churn := base
	churn.Strategy = StrategySpec{Kind: TwoChoices, Radius: 3}
	churn.Churn = ChurnReplicas
	churn.ChurnRate = 0.5
	cfgs = append(cfgs, churn)

	drift := churn
	drift.Churn = ChurnDrift
	cfgs = append(cfgs, drift)

	streaming := base
	streaming.Strategy = StrategySpec{Kind: TwoChoices, Radius: 3}
	streaming.Metrics = MetricsStreaming
	cfgs = append(cfgs, streaming)

	links := base
	links.Strategy = StrategySpec{Kind: TwoChoices, Radius: 3}
	links.Metrics = MetricsLinks
	cfgs = append(cfgs, links)

	return cfgs
}

// TestShardDeterministicWorkerInvariance is the parallel-equivalence
// property: under ShardDeterministic, a trial's Result is a pure
// function of (cfg, trial) — bit-identical across every worker count —
// for every chunk size. This is the invariant that lets the golden
// table's sharded pins be captured at one P and enforced at any P.
func TestShardDeterministicWorkerInvariance(t *testing.T) {
	for _, cfg := range shardMatrix() {
		for _, chunk := range []int{64, 1024} {
			ref := cfg
			ref.Workers, ref.Chunk = 1, chunk
			wRef, err := Compile(ref)
			if err != nil {
				t.Fatal(err)
			}
			var want [2]Result
			for trial := range want {
				want[trial] = wRef.RunTrial(uint64(trial))
			}
			for _, p := range []int{2, 3, 8} {
				c := cfg
				c.Workers, c.Chunk = p, chunk
				w, err := Compile(c)
				if err != nil {
					t.Fatal(err)
				}
				for trial := range want {
					got := w.RunTrial(uint64(trial))
					if got != want[trial] {
						t.Errorf("%s/%s chunk=%d t=%d: P=%d diverged from P=1\n got %+v\nwant %+v",
							cfg.Strategy.Kind, cfg.MissPolicy, chunk, trial, p, got, want[trial])
					}
				}
			}
		}
	}
}

// TestShardChunkInvariance: with churn off, the deterministic sharded
// process is also invariant to the chunk partition — granule labels are
// global request indices, so any granule-aligned chunking yields the
// same streams and the same frozen-snapshot visibility per chunk...
// except that visibility *does* change with chunk size (smaller chunks
// refresh the snapshot more often). This test therefore asserts the
// weaker, true property: chunk size changes results only through
// snapshot cadence, so configurations whose strategies ignore loads
// (Nearest) are exactly chunk-invariant.
func TestShardChunkInvariance(t *testing.T) {
	cfg := shardMatrix()[0] // Nearest / MissResample: load-blind
	if cfg.Strategy.Kind != Nearest {
		t.Fatalf("matrix order changed: want Nearest first, got %v", cfg.Strategy.Kind)
	}
	cfg.Workers = 4
	var want Result
	for i, chunk := range []int{64, 256, 1024} {
		c := cfg
		c.Chunk = chunk
		w, err := Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		got := w.RunTrial(3)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("chunk=%d diverged for load-blind strategy:\n got %+v\nwant %+v", chunk, got, want)
		}
	}
}

// TestShardValidation pins the config surface errors of the sharded
// engine.
func TestShardValidation(t *testing.T) {
	ok := Config{Side: 6, K: 30, M: 2, Workers: 2}
	if _, err := Compile(ok); err != nil {
		t.Fatalf("valid sharded config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative workers", func(c *Config) { c.Workers = -1 }},
		{"workers above the bound", func(c *Config) { c.Workers = maxWorkers + 1 }},
		{"workers 1<<30", func(c *Config) { c.Workers = 1 << 30 }},
		// n = 2²⁸ at M = 1 fits the slot budget, but two n-entry deltas
		// do not.
		{"own deltas above the slot budget", func(c *Config) { c.Side, c.M, c.Shard = 1<<14, 1, ShardOwn }},
		{"own without workers", func(c *Config) { c.Workers = 0; c.Shard = ShardOwn }},
		{"chunk not granule-aligned", func(c *Config) { c.Chunk = 96 }},
		{"negative chunk", func(c *Config) { c.Chunk = -1 }},
		{"unknown shard mode", func(c *Config) { c.Shard = ShardOwn + 1 }},
	}
	for _, tc := range cases {
		cfg := ok
		tc.mutate(&cfg)
		if _, err := Compile(cfg); err == nil {
			t.Errorf("%s: config %+v compiled, want error", tc.name, cfg)
		}
	}
	// The bound itself compiles; Compile starts no worker.
	for _, sh := range []ShardMode{ShardDeterministic, ShardOwn} {
		cfg := ok
		cfg.Workers, cfg.Shard = maxWorkers, sh
		if _, err := Compile(cfg); err != nil {
			t.Errorf("%v at Workers=%d rejected: %v", sh, maxWorkers, err)
		}
	}
	// Only the deltas break the slot budget: the deterministic twin of
	// that row validates (Compile would build its 2²⁸-node world).
	big := ok
	big.Side, big.M = 1<<14, 1
	if err := big.validate(); err != nil {
		t.Errorf("deterministic twin of the delta-budget row rejected: %v", err)
	}
}

// TestShardModeRoundTrip pins the CLI names.
func TestShardModeRoundTrip(t *testing.T) {
	for _, m := range []ShardMode{ShardDeterministic, ShardOwn} {
		got, err := shardNames.parse(m.String())
		if err != nil || got != m {
			t.Errorf("parse(%q) = %v, %v", m.String(), got, err)
		}
	}
	if m, err := shardNames.parse(""); err != nil || m != ShardDeterministic {
		t.Errorf("parse(\"\") = %v, %v, want deterministic", m, err)
	}
	for _, bad := range []string{"bogus", "racy"} {
		if _, err := shardNames.parse(bad); err == nil || !strings.Contains(err.Error(), `"`+bad+`"`) {
			t.Errorf("parse(%q) = %v, want an error naming the value", bad, err)
		}
	}
}

// ownBase is a quiesced world (no churn, faults or arrivals) with
// several chunks per trial and a partial last granule.
func ownBase() Config {
	return Config{
		Side: 10, K: 120, M: 2,
		Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9},
		Strategy:   StrategySpec{Kind: TwoChoices, Radius: 3},
		Requests:   4000,
		Workers:    4,
		Shard:      ShardOwn,
		Seed:       0x5eed,
	}
}

// TestShardOwnSanity checks the ShardOwn contract beyond the
// reference's trajectory: request conservation, a max load between the
// perfect-balance floor and the request count, results that reruns on
// fresh worlds and reused Runners reproduce, and generation on the
// deterministic granule streams — a load-blind strategy's Result equals
// ShardDeterministic's at every P, because only load reads differ.
func TestShardOwnSanity(t *testing.T) {
	cfg := ownBase()
	w, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := w.NewRunner()
	for trial := uint64(0); trial < 3; trial++ {
		res := r.RunTrial(trial)
		if res.Requests != cfg.Requests {
			t.Fatalf("t=%d: Requests = %d, want %d", trial, res.Requests, cfg.Requests)
		}
		floor := (cfg.Requests + cfg.N() - 1) / cfg.N()
		if res.MaxLoad < floor || res.MaxLoad > cfg.Requests {
			t.Errorf("t=%d: MaxLoad = %d outside [%d, %d]", trial, res.MaxLoad, floor, cfg.Requests)
		}
		if res.MeanCost < 0 || res.MeanCost > float64(w.Grid().Diameter()) {
			t.Errorf("t=%d: MeanCost = %v outside the hop range", trial, res.MeanCost)
		}
		fresh, err := RunTrial(cfg, trial)
		if err != nil {
			t.Fatal(err)
		}
		if again := r.RunTrial(trial); again != res || fresh != res {
			t.Errorf("t=%d: reused Runner %+v, fresh world %+v, first run %+v", trial, again, fresh, res)
		}
	}

	for _, kind := range []StrategyKind{Nearest, OneChoiceRandom} {
		for _, p := range []int{1, 2, 4, 8} {
			own := cfg
			own.Strategy = StrategySpec{Kind: kind, Radius: 3}
			own.Workers = p
			det := own
			det.Shard = ShardDeterministic
			got, err := RunTrial(own, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunTrial(det, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%v P=%d: load-blind own trial diverged from deterministic:\n got %+v\nwant %+v", kind, p, got, want)
			}
		}
	}
}

// TestShardOwnSingleShardInvariance: where one shard assigns a whole
// chunk, it sees every earlier add of that chunk, so on a quiesced
// world the chunk barriers change nothing a request sees. At P = 1 the
// Result is the same for every chunk size, and at chunk = 64 (one
// granule per chunk) it is the same for every P.
func TestShardOwnSingleShardInvariance(t *testing.T) {
	for _, kind := range []StrategyKind{TwoChoices, Oracle} {
		cfg := ownBase()
		cfg.Strategy.Kind = kind
		run := func(p, chunk int) Result {
			c := cfg
			c.Workers, c.Chunk = p, chunk
			res, err := RunTrial(c, 2)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want := run(1, 64)
		for _, chunk := range []int{256, 1024} {
			if got := run(1, chunk); got != want {
				t.Errorf("%v P=1 chunk=%d diverged from chunk=64:\n got %+v\nwant %+v", kind, chunk, got, want)
			}
		}
		for _, p := range []int{2, 3, 8} {
			if got := run(p, 64); got != want {
				t.Errorf("%v chunk=64 P=%d diverged from P=1:\n got %+v\nwant %+v", kind, p, got, want)
			}
		}
	}
}

// TestShardOwnChurnStress runs 8 own-mode workers while the churn
// engine splices the placement (and tile index) at every barrier,
// across streaming metrics and several trials, and checks that a fresh
// world reproduces every Result. Under the race detector (CI runs -race
// over 'Shard|Fault|Hetero') it is the interleaving surface for the
// per-shard deltas: any write to shared loads outside the barrier, or
// any churn splice overlapping an assign, would be flagged here.
func TestShardOwnChurnStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, kind := range []StrategyKind{TwoChoices, Oracle} {
		cfg := Config{
			Side: 16, K: 400, M: 2,
			Popularity: PopSpec{Kind: PopZipf, Gamma: 1.1},
			Strategy:   StrategySpec{Kind: kind, Radius: 4},
			Requests:   16 * 1024,
			Metrics:    MetricsStreaming,
			Churn:      ChurnReplicas,
			ChurnRate:  0.5,
			Workers:    8,
			Shard:      ShardOwn,
			Chunk:      256, // short chunks → many barriers and splices
			Seed:       0xace,
		}
		w, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for trial := uint64(0); trial < 4; trial++ {
			res := w.RunTrial(trial)
			if res.Requests != cfg.Requests {
				t.Fatalf("%v t=%d: Requests = %d, want %d", kind, trial, res.Requests, cfg.Requests)
			}
			if res.ChurnEvents == 0 {
				t.Errorf("%v t=%d: churn never fired under rate %v", kind, trial, cfg.ChurnRate)
			}
			if res.MaxLoad <= 0 || !res.Streamed {
				t.Errorf("%v t=%d: implausible result %+v", kind, trial, res)
			}
			if again := fresh.RunTrial(trial); again != res {
				t.Errorf("%v t=%d: fresh world %+v, first run %+v", kind, trial, again, res)
			}
		}
	}
}

// TestShardWideWorkerCounts runs more shards than a chunk has granules
// (empty shards) and P far beyond GOMAXPROCS, checking the barrier
// protocol tolerates idle workers.
func TestShardWideWorkerCounts(t *testing.T) {
	cfg := Config{
		Side: 6, K: 60, M: 2,
		Strategy: StrategySpec{Kind: TwoChoices, Radius: 2},
		Requests: 128, // 2 granules per 64-chunk
		Chunk:    64,
		Seed:     9,
	}
	ref := cfg
	ref.Workers = 1
	wr, err := Compile(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := wr.RunTrial(0)
	for _, p := range []int{5, 32} {
		c := cfg
		c.Workers = p
		w, err := Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.RunTrial(0); got != want {
			t.Errorf("P=%d (mostly idle shards) diverged:\n got %+v\nwant %+v", p, got, want)
		}
	}
}

// TestShardRunnerReuse runs many trials through one pooled world at
// P=4, interleaving trial indices, and checks against fresh worlds — no
// state may leak across sharded trials (worker goroutines from a
// previous trial, stale shard accounts, unreset granule accumulators).
func TestShardRunnerReuse(t *testing.T) {
	cfg := Config{
		Side: 10, K: 120, M: 2,
		Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9},
		Strategy:   StrategySpec{Kind: TwoChoices, Radius: 3},
		Requests:   2048,
		Metrics:    MetricsStreaming,
		Workers:    4,
		Seed:       0x77,
	}
	w, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := []uint64{3, 0, 3, 1, 2, 0}
	for i, trial := range seq {
		got := w.RunTrial(trial)
		fresh, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.RunTrial(trial)
		if got != want {
			t.Errorf("reuse step %d (t=%d) diverged:\n got %+v\nwant %+v", i, trial, got, want)
		}
	}
}

// TestShardAggregateAcrossWorkers runs Run (trial-level parallelism) on
// a sharded config and checks the aggregate matches the serial fold —
// the two parallelism layers compose.
func TestShardAggregateAcrossWorkers(t *testing.T) {
	cfg := Config{
		Side: 8, K: 80, M: 2,
		Strategy: StrategySpec{Kind: TwoChoices, Radius: 3},
		Requests: 1024,
		Workers:  2,
		Seed:     5,
	}
	const trials = 8
	got, err := Run(cfg, trials, 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want Aggregate
	for trial := uint64(0); trial < trials; trial++ {
		want.Add(w.RunTrial(trial))
	}
	// Run merges per-block aggregates pairwise (Chan et al.), which is
	// not bit-identical to the serial Welford fold — compare trial
	// counts exactly and moments within float slack.
	if got.Trials != want.Trials {
		t.Fatalf("Trials = %d, want %d", got.Trials, want.Trials)
	}
	if d := got.MaxLoad.Mean() - want.MaxLoad.Mean(); d > 1e-9 || d < -1e-9 {
		t.Errorf("MaxLoad mean diverged: got %v, want %v", got.MaxLoad.Mean(), want.MaxLoad.Mean())
	}
	if d := got.MeanCost.Mean() - want.MeanCost.Mean(); d > 1e-9 || d < -1e-9 {
		t.Errorf("MeanCost mean diverged: got %v, want %v", got.MeanCost.Mean(), want.MeanCost.Mean())
	}
}

func ExampleConfig_workers() {
	cfg := Config{
		Side: 8, K: 64, M: 2,
		Strategy: StrategySpec{Kind: TwoChoices, Radius: 3},
		Workers:  4,
		Seed:     1,
	}
	w, err := Compile(cfg)
	if err != nil {
		panic(err)
	}
	res := w.RunTrial(0)
	fmt.Println(res.Requests == cfg.N())
	// Output: true
}

// TestShardedTrialSteadyStateAllocs extends the engine's allocation
// contract to the sharded path: after warm-up, a P-worker trial's only
// allocations are the P−1 per-trial goroutine spawns of the barrier
// protocol — the per-shard request loops and the coordinator's barrier
// merge run out of reused arenas. The budget of 4 allocs per spawned
// worker (goroutine + argument frame, with headroom for runtime stack
// bookkeeping) would be blown three orders of magnitude over by a
// single allocation inside the per-request loop (paperScaleCfg issues
// 4900 requests/trial), so passing here certifies 0 allocs/op per
// shard and an O(P) barrier merge.
func TestShardedTrialSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and disables pool caching")
	}
	for _, variant := range []struct {
		name string
		mut  func(*Config)
	}{
		{"det-scalar-p4", func(c *Config) { c.Workers = 4 }},
		{"det-streaming-p4", func(c *Config) { c.Workers = 4; c.Metrics = MetricsStreaming }},
		{"det-streaming-p8", func(c *Config) { c.Workers = 8; c.Metrics = MetricsStreaming }},
		{"own-scalar-p4", func(c *Config) { c.Workers = 4; c.Shard = ShardOwn }},
		{"det-churn-p4", func(c *Config) { c.Workers = 4; c.Churn = ChurnReplicas; c.ChurnRate = 0.25 }},
	} {
		cfg := paperScaleCfg()
		variant.mut(&cfg)
		w, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := w.NewRunner()
		r.RunTrial(0)
		r.RunTrial(1) // second warm-up: buffers at steady-state size
		trial := uint64(2)
		budget := float64(4 * (cfg.Workers - 1))
		if n := testing.AllocsPerRun(3, func() {
			r.RunTrial(trial)
			trial++
		}); n > budget {
			t.Errorf("%s: steady-state sharded RunTrial allocates %.1f/op, want <= %.0f (worker spawns only)",
				variant.name, n, budget)
		}
	}
}
