// Command cachesim runs a single cache-network simulation configuration
// and prints the measured maximum load and communication cost.
//
// Examples:
//
//	cachesim -side 45 -k 500 -m 10 -strategy two-choices -radius 8 -trials 100
//	cachesim -side 45 -k 2000 -m 1 -strategy nearest -gamma 0.8 -trials 50
//
// Wide worlds (n = 10⁶ servers) at flat memory — streaming metrics over
// the batched request pipeline and the tile-bucketed spatial replica
// index (sub-second trials):
//
//	cachesim -side 1000 -k 10000 -m 10 -strategy two-choices -radius 8 \
//	    -metrics streaming -trials 4
//
// The §VI dynamic regime — caches migrate replicas mid-trial while
// requests keep arriving (uniformly with -churn replicas, chasing a
// drifting popularity with -churn drift):
//
//	cachesim -side 25 -k 2000 -m 4 -strategy two-choices -radius 6 \
//	    -requests 8192 -churn replicas -churn-rate 0.5 -trials 20
//
// Intra-trial sharding — one trial's request pipeline on P workers
// (-shard-workers is orthogonal to -workers, which parallelizes across
// trials). The default deterministic mode is bit-identical for every P;
// racy mode shares one atomic load vector to model allocation under
// stale load reads:
//
//	cachesim -side 1000 -k 10000 -m 10 -strategy two-choices -radius 8 \
//	    -metrics streaming -shard-workers 8 -trials 4
//	cachesim -side 25 -k 2000 -m 4 -strategy two-choices -radius 6 \
//	    -shard-workers 8 -shard racy -chunk 256 -trials 20
//
// Node fault injection — servers crash (and optionally recover)
// mid-trial while the strategies mask dead nodes and degrade
// gracefully (-faults regional kills whole tile-aligned regions;
// faults require -miss escalate or -miss origin):
//
//	cachesim -side 25 -k 2000 -m 4 -strategy two-choices -radius 6 \
//	    -requests 8192 -miss escalate -faults crash -fault-rate 0.05 \
//	    -recover-rate 0.02 -trials 20
//
// Heterogeneous nodes — per-node cache sizes M_u and service capacities
// C_u drawn from a profile (-hetero capacity), with the two-choices
// comparison weighted to load/C_u; -hetero arrival additionally starts
// ~25% of nodes vacant and lets them join mid-trial (needs
// -arrival-rate and -miss escalate or origin):
//
//	cachesim -side 25 -k 2000 -m 4 -strategy two-choices -radius 6 \
//	    -requests 8192 -hetero capacity -profile two-tier -trials 20
//	cachesim -side 25 -k 2000 -m 4 -strategy two-choices -radius 6 \
//	    -requests 8192 -miss escalate -hetero arrival -profile power-law \
//	    -arrival-rate 0.01 -trials 20
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/grid"
	"repro/internal/sim"
)

func main() {
	var (
		side     = flag.Int("side", 45, "lattice side L (n = L^2 servers)")
		topo     = flag.String("topology", "torus", "torus or grid")
		k        = flag.Int("k", 500, "library size K")
		m        = flag.Int("m", 10, "cache size M")
		gamma    = flag.Float64("gamma", 0, "Zipf exponent (0 = uniform popularity)")
		strategy = flag.String("strategy", "two-choices", "nearest, two-choices, one-choice or oracle")
		radius   = flag.Int("radius", -1, "proximity radius r in hops (-1 = unbounded)")
		choices  = flag.Int("choices", 2, "number of sampled candidates d")
		requests = flag.Int("requests", 0, "requests per trial (0 = n)")
		miss     = flag.String("miss", "resample", "miss policy: resample, escalate or origin")
		metrics  = flag.String("metrics", "scalar", "per-trial instrumentation: scalar, links or streaming")
		churn    = flag.String("churn", "none", "mid-trial re-placement: none, replicas (uniform migration) or drift (popularity-coupled)")
		churnRt  = flag.Float64("churn-rate", 0, "expected replica migrations per request (required with -churn)")
		faults   = flag.String("faults", "none", "node fault injection: none, crash (uniform) or regional (tile-aligned failure domains)")
		faultRt  = flag.Float64("fault-rate", 0, "expected crash events per request (required with -faults; needs -miss escalate or origin)")
		recovRt  = flag.Float64("recover-rate", 0, "expected recovery events per request (0 = permanent crashes)")
		hetero   = flag.String("hetero", "none", "node heterogeneity: none, capacity (per-node M_u/C_u) or arrival (plus mid-trial joins)")
		profile  = flag.String("profile", "uniform", "per-node cache-size profile under -hetero: uniform, two-tier or power-law")
		arrRt    = flag.Float64("arrival-rate", 0, "expected node arrivals per request (required with -hetero arrival)")
		shardW   = flag.Int("shard-workers", 0, "intra-trial shard workers P (0 = sequential engine)")
		shard    = flag.String("shard", "deterministic", "sharded load visibility: deterministic (bit-identical across P) or racy (shared atomic loads)")
		chunk    = flag.Int("chunk", 0, "request-pipeline chunk size (0 = engine default; multiple of 64 under -shard-workers)")
		trials   = flag.Int("trials", 50, "independent trials")
		workers  = flag.Int("workers", 0, "parallel workers across trials (0 = GOMAXPROCS)")
		seed     = flag.Uint64("seed", 2017, "root random seed")
		verbose  = flag.Bool("v", false, "print per-era placement diagnostics (the served-mode snapshot stamp)")
	)
	flag.Parse()

	cfg, err := buildConfig(*side, *topo, *k, *m, *gamma, *strategy, *radius, *choices, *requests, *miss, *metrics, *churn, *churnRt, *faults, *faultRt, *recovRt, *hetero, *profile, *arrRt, *shardW, *shard, *chunk, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachesim:", err)
		os.Exit(2)
	}
	agg, err := repro.Run(cfg, *trials, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachesim:", err)
		os.Exit(1)
	}
	fmt.Printf("n=%d K=%d M=%d strategy=%s radius=%d trials=%d\n",
		cfg.N(), cfg.K, cfg.M, cfg.Strategy.Kind, cfg.Strategy.Radius, agg.Trials)
	fmt.Printf("max load:  %s\n", agg.MaxLoad.String())
	fmt.Printf("comm cost: %s hops\n", agg.MeanCost.String())
	fmt.Printf("escalated: %.4f of requests; backhaul: %.4f; uncached files/trial: %.1f\n",
		agg.Escalated.Mean(), agg.Backhaul.Mean(), agg.Uncached.Mean())
	if cfg.Churn != repro.ChurnNone {
		fmt.Printf("churn:     %s events/trial (skipped %s)\n",
			agg.ChurnEvents.String(), agg.ChurnSkipped.String())
	}
	if cfg.Faults != repro.FaultsNone {
		fmt.Printf("faults:    %s crashes/trial, %s recoveries (skipped %s); dead at end %s\n",
			agg.FaultEvents.String(), agg.RecoverEvents.String(),
			agg.FaultSkipped.String(), agg.DeadNodes.String())
		fmt.Printf("avail:     %s of requests served in-network; retried %s; stranded load %s\n",
			agg.Availability.String(), agg.Retried.String(), agg.DeadLoad.String())
	}
	if cfg.Hetero == repro.HeteroArrival {
		fmt.Printf("arrivals:  %s joins/trial (skipped %s); vacant at end %s\n",
			agg.ArrivalEvents.String(), agg.ArrivalSkipped.String(), agg.Vacant.String())
	}
	switch cfg.Metrics {
	case repro.MetricsLinks:
		fmt.Printf("link load:  max %s, congestion %s\n",
			agg.MaxLinkLoad.String(), agg.LinkCongestion.String())
	case repro.MetricsStreaming:
		fmt.Printf("hops:      max %s, std %s (streaming)\n", agg.HopMax.String(), agg.HopStd.String())
		fmt.Printf("load p99:  %s\n", agg.LoadP99.String())
		if agg.LinkMaxApprox.Mean() > 0 {
			fmt.Printf("link load: max ≈ %s (space-saving sketch upper bound)\n", agg.LinkMaxApprox.String())
		}
	}
	if *verbose {
		printEras(cfg, *trials)
	}
}

// printEras prints the placement-era diagnostic stamp of each trial —
// the same World.Snapshot stamp the served daemon reports on /metrics,
// so batch and served runs of one (config, seed) pair can be lined up
// era by era. Capped at the first few eras; a snapshot compile is a
// full placement build.
func printEras(cfg repro.Config, trials int) {
	const maxEras = 8
	w, err := repro.Compile(cfg)
	if err != nil {
		return
	}
	fmt.Println("placement eras (served-mode snapshot stamps):")
	for t := 0; t < min(trials, maxEras); t++ {
		fmt.Printf("  %s\n", w.Snapshot(uint64(t)).Info())
	}
	if trials > maxEras {
		fmt.Printf("  … %d more eras\n", trials-maxEras)
	}
}

// buildConfig translates CLI flags into a sim configuration. It rejects
// a churn, fault or arrival process whose trial would end before its
// first chunk barrier (see sim.CheckBarriers); every other check runs
// when the trials do.
func buildConfig(side int, topo string, k, m int, gamma float64, strategy string,
	radius, choices, requests int, miss, metrics, churn string,
	churnRate float64, faults string, faultRate, recoverRate float64,
	hetero, profile string, arrivalRate float64,
	shardWorkers int, shard string, chunk int, seed uint64) (repro.Config, error) {
	var cfg repro.Config
	tp, err := grid.ParseTopology(topo)
	if err != nil {
		return cfg, err
	}
	mm, err := repro.ParseMetricsMode(metrics)
	if err != nil {
		return cfg, err
	}
	ch, err := repro.ParseChurn(churn)
	if err != nil {
		return cfg, err
	}
	fm, err := repro.ParseFaults(faults)
	if err != nil {
		return cfg, err
	}
	sh, err := repro.ParseShard(shard)
	if err != nil {
		return cfg, err
	}
	hm, err := repro.ParseHetero(hetero)
	if err != nil {
		return cfg, err
	}
	pf, err := repro.ParseProfile(profile)
	if err != nil {
		return cfg, err
	}
	mp, err := repro.ParseMiss(miss)
	if err != nil {
		return cfg, err
	}
	cfg = repro.Config{
		Side: side, Topology: tp, K: k, M: m,
		Requests: requests, MissPolicy: mp, Metrics: mm,
		Churn: ch, ChurnRate: churnRate,
		Faults: fm, FaultRate: faultRate, RecoverRate: recoverRate,
		Hetero: hm, Profile: pf, ArrivalRate: arrivalRate,
		Workers: shardWorkers, Shard: sh, Chunk: chunk, Seed: seed,
	}
	if gamma > 0 {
		cfg.Popularity = repro.PopSpec{Kind: repro.PopZipf, Gamma: gamma}
	}
	switch strategy {
	case "nearest":
		cfg.Strategy = repro.StrategySpec{Kind: repro.Nearest}
	case "two-choices", "two":
		cfg.Strategy = repro.StrategySpec{Kind: repro.TwoChoices, Radius: radius, Choices: choices}
	case "one-choice", "one":
		cfg.Strategy = repro.StrategySpec{Kind: repro.OneChoiceRandom, Radius: radius}
	case "oracle":
		cfg.Strategy = repro.StrategySpec{Kind: repro.Oracle, Radius: radius}
	default:
		return cfg, fmt.Errorf("unknown strategy %q", strategy)
	}
	return cfg, sim.CheckBarriers(cfg)
}
