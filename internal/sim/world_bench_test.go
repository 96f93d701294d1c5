package sim

import (
	"fmt"
	"testing"
)

// paperScaleCfg is the acceptance-benchmark point for the compiled-world
// layer: n = 4900 servers, K = 10^4 files, Zipf γ = 1.2, two-choices r = 8.
func paperScaleCfg() Config {
	return Config{
		Side: 70, K: 10000, M: 10, Seed: 1,
		Popularity: PopSpec{Kind: PopZipf, Gamma: 1.2},
		Strategy:   StrategySpec{Kind: TwoChoices, Radius: 8},
	}
}

// BenchmarkRunTrial measures one end-to-end trial through the public
// RunTrial wrapper at the paper-scale point (compile-once world memoized
// behind the wrapper, runner pooled).
func BenchmarkRunTrial(b *testing.B) {
	cfg := paperScaleCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunTrial(cfg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorldRunTrial measures the same trial on an explicit compiled
// World with a dedicated reused Runner called in order, which arms each
// next trial ahead on a second core (placement, conditioned sampler,
// request ids and the planned walks of its first requests);
// TestRunnerLookaheadSteadyStateAllocs holds that loop to zero
// steady-state allocations.
func BenchmarkWorldRunTrial(b *testing.B) {
	w, err := Compile(paperScaleCfg())
	if err != nil {
		b.Fatal(err)
	}
	r := w.NewRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.RunTrial(uint64(i))
	}
}

// BenchmarkWorldRunTrialStreaming is the metrics-accounting layer: one
// streaming trial (hop and load accumulators, no link vector) on
// widegrid quick's Side 70 world (K = 10⁴, M = 10, uniform popularity,
// two-choices r = 8).
func BenchmarkWorldRunTrialStreaming(b *testing.B) {
	w, err := Compile(Config{
		Side: 70, K: 10000, M: 10, Seed: 1,
		Strategy: StrategySpec{Kind: TwoChoices, Radius: 8},
		Metrics:  MetricsStreaming,
	})
	if err != nil {
		b.Fatal(err)
	}
	r := w.NewRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.RunTrial(uint64(i))
	}
}

// wideWorldCfg is the widegrid acceptance point: one Side=1000
// (n = 10⁶ servers, 10⁶ requests) two-choices r=8 trial with streaming
// metrics. The request path allocates nothing; all
// memory is the compiled world plus the runner's O(n) placement/load
// state — no O(n) metric vector is ever materialized.
func wideWorldCfg() Config {
	return Config{
		Side: 1000, K: 10000, M: 10, Seed: 1,
		Popularity: PopSpec{Kind: PopZipf, Gamma: 1.2},
		Strategy:   StrategySpec{Kind: TwoChoices, Radius: 8},
		Metrics:    MetricsStreaming,
	}
}

// BenchmarkWideWorldTrial is the wide-world headline: the trial through
// the tile-bucketed spatial replica index (sub-second; the retired exact
// filter took ~4.9 s, see docs/perf.md).
func BenchmarkWideWorldTrial(b *testing.B) {
	benchWideWorld(b, wideWorldCfg())
}

// BenchmarkWideWorldTrialParallel is the PR 6 scaling curve: the
// wide-world trial through the intra-trial sharded engine
// (ShardDeterministic) at P ∈ {1, 2, 4, 8} workers. P=1 measures the
// sharded discipline's sequential cost (granule streams + barrier
// bookkeeping, no concurrency); higher P divide the assign phase while
// placement build, delta application and accounting stay with the
// coordinator — the Amdahl floor of the curve.
func BenchmarkWideWorldTrialParallel(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			cfg := wideWorldCfg()
			cfg.Workers = p
			benchWideWorld(b, cfg)
		})
	}
}

func benchWideWorld(b *testing.B, cfg Config) {
	w, err := Compile(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := w.NewRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.RunTrial(uint64(i))
	}
}

// BenchmarkWideWorldTrialFaults is the wide-world trial with the fault
// engine live: FaultsCrash at a rate that kills ~1% of the 10⁶ nodes
// over the trial with MTTR-style recovery at half that rate, under
// MissEscalate (the resampling policy is incompatible
// with faults). Measures the steady-state cost of the liveness mask on
// the request path — per-candidate Live() checks, tile live-count
// consultation, and the occasional degradation-ladder retry — on top of
// the per-chunk fault events themselves.
func BenchmarkWideWorldTrialFaults(b *testing.B) {
	cfg := wideWorldCfg()
	cfg.MissPolicy = MissEscalate
	cfg.Faults = FaultsCrash
	cfg.FaultRate = 0.01
	cfg.RecoverRate = 0.005
	benchWideWorld(b, cfg)
}

// BenchmarkWideWorldTrialHetero is the wide-world trial with the
// heterogeneity engine live: power-law per-node cache sizes under
// HeteroCapacity, so every two-choices comparison reads loads through
// the capacity-weighted view and the placement build runs the
// variable-stride CSR path. Measures the steady-state cost of the
// weighted reads plus the per-trial profile draw on top of the
// homogeneous BenchmarkWideWorldTrial.
func BenchmarkWideWorldTrialHetero(b *testing.B) {
	cfg := wideWorldCfg()
	cfg.Hetero = HeteroCapacity
	cfg.Profile = ProfilePowerLaw
	benchWideWorld(b, cfg)
}

// BenchmarkWorldRunTrialHeteroArrival is the open-system regime at the
// paper-scale point (compare BenchmarkWorldRunTrial): ~25% of the nodes
// start vacant and join at chunk barriers. Each join refills the node's
// slots, and each barrier splices its joiners into the replica index and
// tile index by shifting both arenas once — O(Σ|S_j| + K) memmove and
// add work per barrier, not per event (cache.BenchmarkArriveNode times
// batches of 1 and 10 joins, BenchmarkBarrier/arrivals one barrier).
// MissEscalate handles requests whose in-radius candidates are still
// vacant.
func BenchmarkWorldRunTrialHeteroArrival(b *testing.B) {
	cfg := paperScaleCfg()
	cfg.MissPolicy = MissEscalate
	cfg.Hetero = HeteroArrival
	cfg.Profile = ProfilePowerLaw
	cfg.ArrivalRate = 0.01
	w, err := Compile(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := w.NewRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.RunTrial(uint64(i))
	}
}

// dynamicCfg is perfbench's dynamic workload at seed 1: the paper-scale
// point with replica churn at 0.5 per request, crash faults at 0.01
// recovering at 0.005 and power-law node arrivals at 0.01 under
// MissEscalate, composed — 4 barriers a trial.
func dynamicCfg() Config {
	cfg := paperScaleCfg()
	cfg.MissPolicy = MissEscalate
	cfg.Churn, cfg.ChurnRate = ChurnReplicas, 0.5
	cfg.Faults, cfg.FaultRate, cfg.RecoverRate = FaultsCrash, 0.01, 0.005
	cfg.Hetero, cfg.Profile, cfg.ArrivalRate = HeteroArrival, ProfilePowerLaw, 0.01
	return cfg
}

// BenchmarkWorldRunTrialDynamic is perfbench's dynamic workload in
// process: trials of dynamicCfg on a caller-held Runner called in order,
// whose helper arms each next trial ahead, plans its first chunk's walks
// and applies its barriers into chunk views while the current trial's
// requests run (internal/sim/lookahead.go). Three untimed calls first
// make the Runner's arenas, its spare and both states' views, which
// perfbench times as set-up, so allocs/op reads the steady state.
func BenchmarkWorldRunTrialDynamic(b *testing.B) {
	w, err := Compile(dynamicCfg())
	if err != nil {
		b.Fatal(err)
	}
	r := w.NewRunner()
	const warm = 3
	for t := uint64(0); t < warm; t++ {
		r.RunTrial(t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.RunTrial(warm + uint64(i))
	}
}

// BenchmarkBarrier splits the chunk-barrier mutations of the dynamic
// regime (perfbench's dynamic workload) by kind. Each sub-benchmark
// times one Snapshot.Advance(1024) — the barrier a 1024-request
// pipeline chunk closes with — at the dynamic shape (the paper-scale
// point, power-law capacities, MissEscalate) with only its own mutation
// on: arrivals at 0.01 per request from ~25% vacant nodes, crash faults
// at 0.01 recovering at 0.005, or replica churn at 0.5 — uniform over
// the replica arena (churn, ChurnReplicas) or chasing the drifting
// popularity (churn-drift, ChurnDrift, whose events address the replica
// by its IntN slot in S_j). composed is the dynamic config, arrivals,
// faults and ChurnReplicas in the engine's order. A paper-scale trial
// closes 4 barriers, so every 4 the era snapshot is drawn afresh with
// the timer stopped, keeping the placement as close to its start as a
// trial's.
func BenchmarkBarrier(b *testing.B) {
	arrivals := func(c *Config) { c.Hetero, c.ArrivalRate = HeteroArrival, 0.01 }
	faults := func(c *Config) { c.Faults, c.FaultRate, c.RecoverRate = FaultsCrash, 0.01, 0.005 }
	churn := func(c *Config) { c.Churn, c.ChurnRate = ChurnReplicas, 0.5 }
	for _, kind := range []struct {
		name string
		mut  func(*Config)
	}{
		{"arrivals", arrivals},
		{"faults", faults},
		{"churn", churn},
		{"churn-drift", func(c *Config) { c.Churn, c.ChurnRate = ChurnDrift, 0.5 }},
		{"composed", func(c *Config) { arrivals(c); faults(c); churn(c) }},
	} {
		b.Run(kind.name, func(b *testing.B) {
			cfg := paperScaleCfg()
			cfg.MissPolicy = MissEscalate
			cfg.Hetero, cfg.Profile = HeteroCapacity, ProfilePowerLaw
			kind.mut(&cfg)
			w, err := Compile(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var s *Snapshot
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%4 == 0 {
					b.StopTimer()
					s = w.Snapshot(uint64(i / 4))
					b.StartTimer()
				}
				s.Advance(defaultChunk)
			}
		})
	}
}

// BenchmarkCompile measures the trial-invariant setup the World layer
// amortizes (grid + coordinate tables, Zipf PMF + alias table, placement
// profile, RNG sources).
func BenchmarkCompile(b *testing.B) {
	cfg := paperScaleCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorldRunTrialChurn measures the paper-scale trial with the
// dynamic regime switched on (ChurnReplicas, rate 0.5 — one migration
// per two requests, ~2k events per trial). The slot-addressed
// Placement/TileIndex splices cost ~0.4 µs per event here (the churn
// barrier was 14 % of this trial in a CPU profile on a 2-vCPU Xeon),
// so even this heavy schedule keeps the dynamic trial at ~1.25× the
// frozen-placement BenchmarkWorldRunTrial (1.15–1.46× over four rounds
// of 300 iterations on that host), where per-chunk from-scratch
// rebuilds would more than double it (see docs/perf.md's tradeoff
// table).
func BenchmarkWorldRunTrialChurn(b *testing.B) {
	cfg := paperScaleCfg()
	cfg.Churn = ChurnReplicas
	cfg.ChurnRate = 0.5
	w, err := Compile(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := w.NewRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.RunTrial(uint64(i))
	}
}

// BenchmarkWorldRunTrialChurnDrift is the same point under the
// popularity-drift-coupled schedule (drifter tick + conditioned-sampler
// rebuild per chunk on top of the migrations).
func BenchmarkWorldRunTrialChurnDrift(b *testing.B) {
	cfg := paperScaleCfg()
	cfg.Churn = ChurnDrift
	cfg.ChurnRate = 0.5
	w, err := Compile(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := w.NewRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.RunTrial(uint64(i))
	}
}
