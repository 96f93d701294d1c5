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
	"repro/internal/sim"
)

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachesim:", err)
		os.Exit(2)
	}
	cfg := o.cfg
	agg, err := repro.Run(cfg, o.trials, o.workers)
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
	}
	if o.verbose {
		printEras(cfg, o.trials)
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

// options is cachesim's command line: the configuration it simulates
// and how many trials to run on how many workers.
type options struct {
	cfg             repro.Config
	trials, workers int
	verbose         bool
}

// parseArgs binds the flags to a sim.PointSpec and translates it. It
// rejects a churn, fault or arrival process whose trial would end
// before its first chunk barrier (see sim.CheckBarriers). A bad flag
// exits the process with status 2, as flag.Parse does.
func parseArgs(args []string) (options, error) {
	var p sim.PointSpec
	var o options
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.IntVar(&p.Side, "side", 45, "lattice side L (n = L^2 servers)")
	fs.StringVar(&p.Topology, "topology", "torus", "torus or grid")
	fs.IntVar(&p.K, "k", 500, "library size K")
	fs.IntVar(&p.M, "m", 10, "cache size M")
	fs.Float64Var(&p.Gamma, "gamma", 0, "Zipf exponent (0 = uniform popularity)")
	fs.StringVar(&p.Strategy, "strategy", "two-choices", "nearest, two-choices, one-choice or oracle")
	fs.IntVar(&p.Radius, "radius", -1, "proximity radius r in hops (-1 = unbounded)")
	fs.IntVar(&p.Choices, "choices", 2, "number of sampled candidates d")
	fs.IntVar(&p.Requests, "requests", 0, "requests per trial (0 = n)")
	fs.StringVar(&p.Miss, "miss", "resample", "miss policy: resample, escalate or origin")
	fs.StringVar(&p.Metrics, "metrics", "scalar", "per-trial instrumentation: scalar, links or streaming")
	fs.StringVar(&p.Churn, "churn", "none", "mid-trial re-placement: none, replicas (uniform migration) or drift (popularity-coupled)")
	fs.Float64Var(&p.ChurnRate, "churn-rate", 0, "expected replica migrations per request (required with -churn)")
	fs.StringVar(&p.Faults, "faults", "none", "node fault injection: none, crash (uniform) or regional (tile-aligned failure domains)")
	fs.Float64Var(&p.FaultRate, "fault-rate", 0, "expected crash events per request (required with -faults; needs -miss escalate or origin)")
	fs.Float64Var(&p.RecoverRate, "recover-rate", 0, "expected recovery events per request (0 = permanent crashes)")
	fs.StringVar(&p.Hetero, "hetero", "none", "node heterogeneity: none, capacity (per-node M_u/C_u) or arrival (plus mid-trial joins)")
	fs.StringVar(&p.Profile, "profile", "uniform", "per-node cache-size profile under -hetero: uniform, two-tier or power-law")
	fs.Float64Var(&p.ArrivalRate, "arrival-rate", 0, "expected node arrivals per request (required with -hetero arrival)")
	fs.IntVar(&p.Workers, "shard-workers", 0, "intra-trial shard workers P (0 = sequential engine)")
	fs.StringVar(&p.Shard, "shard", "deterministic", "sharded load visibility: deterministic (bit-identical across P) or racy (shared atomic loads)")
	fs.IntVar(&p.Chunk, "chunk", 0, "request-pipeline chunk size (0 = engine default; multiple of 64 under -shard-workers)")
	fs.IntVar(&o.trials, "trials", 50, "independent trials")
	fs.IntVar(&o.workers, "workers", 0, "parallel workers across trials (0 = GOMAXPROCS)")
	seed := fs.Uint64("seed", 2017, "root random seed")
	fs.BoolVar(&o.verbose, "v", false, "print per-era placement diagnostics (the served-mode snapshot stamp)")
	fs.Parse(args)
	cfg, err := p.Config(*seed)
	if err == nil {
		err = sim.CheckBarriers(cfg)
	}
	o.cfg = cfg
	return o, err
}
