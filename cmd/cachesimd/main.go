// Command cachesimd serves the paper's placement policy as a
// long-running HTTP daemon: it compiles a simulation world at startup
// and answers batched placement queries — which replica of file j
// should user u fetch — against a lock-free snapshot of the placement,
// with churn and fault events applied between request batches by a
// single mutator goroutine (see internal/serve and docs/serving.md).
//
// Start a quiesced daemon and query it:
//
//	cachesimd -side 32 -k 2000 -m 4 -strategy two-choices -radius 6 \
//	    -gamma 0.8 -addr :8080
//	curl -s localhost:8080/v1/place -d '{"pairs":[{"u":17,"f":3}]}'
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics
//
// A dynamic daemon (replica churn plus node crashes, applied between
// batches, republished copy-on-write):
//
//	cachesimd -side 32 -k 2000 -m 4 -strategy two-choices -radius 6 \
//	    -miss escalate -churn replicas -churn-rate 0.01 \
//	    -faults crash -fault-rate 0.001 -recover-rate 0.001
//
// SIGHUP recompiles the next placement era and hot-swaps it (in-flight
// batches finish on the old snapshot); SIGINT/SIGTERM drain gracefully.
//
// The in-process load generator skips HTTP entirely and drives the
// snapshot engine directly — the ≥10⁶ decisions/s headline path:
//
//	cachesimd -side 32 -k 2000 -m 4 -strategy two-choices -radius 6 \
//	    -gamma 0.8 -loadgen 4000000 -conns 8 -batch 256
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/grid"
	"repro/internal/serve"
)

func main() {
	var (
		side     = flag.Int("side", 32, "lattice side L (n = L^2 servers)")
		topo     = flag.String("topology", "torus", "torus or grid")
		k        = flag.Int("k", 2000, "library size K")
		m        = flag.Int("m", 4, "cache size M")
		gamma    = flag.Float64("gamma", 0, "Zipf exponent (0 = uniform popularity)")
		strategy = flag.String("strategy", "two-choices", "nearest, two-choices, one-choice or oracle")
		radius   = flag.Int("radius", 6, "proximity radius r in hops (-1 = unbounded)")
		choices  = flag.Int("choices", 2, "number of sampled candidates d")
		requests = flag.Int("requests", 0, "requests per era in loadgen replay (0 = n)")
		miss     = flag.String("miss", "resample", "miss policy: resample, escalate or origin")
		churn    = flag.String("churn", "none", "between-batch re-placement: none, replicas or drift")
		churnRt  = flag.Float64("churn-rate", 0, "expected replica migrations per served request")
		faults   = flag.String("faults", "none", "node fault injection: none, crash or regional")
		faultRt  = flag.Float64("fault-rate", 0, "expected crash events per served request")
		recovRt  = flag.Float64("recover-rate", 0, "expected recovery events per served request")
		hetero   = flag.String("hetero", "none", "node heterogeneity: none, capacity or arrival")
		profile  = flag.String("profile", "uniform", "per-node cache-size profile under -hetero: uniform, two-tier or power-law")
		arrRt    = flag.Float64("arrival-rate", 0, "expected node arrivals per served request (with -hetero arrival)")
		seed     = flag.Uint64("seed", 2017, "root random seed")
		era      = flag.Uint64("era", 0, "initial placement era (trial index under -seed)")
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		loadgen  = flag.Int("loadgen", 0, "serve N decisions in-process and exit (no HTTP)")
		conns    = flag.Int("conns", 8, "loadgen concurrent decision contexts")
		batch    = flag.Int("batch", 256, "loadgen queries per batch")
	)
	flag.Parse()

	cfg, err := buildConfig(*side, *topo, *k, *m, *gamma, *strategy, *radius, *choices,
		*requests, *miss, *churn, *churnRt, *faults, *faultRt, *recovRt,
		*hetero, *profile, *arrRt, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachesimd:", err)
		os.Exit(2)
	}
	w, err := repro.Compile(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachesimd:", err)
		os.Exit(2)
	}
	e := serve.New(w, *era)
	defer e.Close()

	if *loadgen > 0 {
		res := serve.Loadgen(e, *loadgen, *conns, *batch)
		fmt.Printf("loadgen: %d decisions in %v over %d conns (batch %d)\n",
			res.Decisions, res.Elapsed.Round(time.Millisecond), res.Conns, res.Batch)
		fmt.Printf("rate:    %.0f decisions/s\n", res.PerSec)
		fmt.Printf("state:   %s\n", e.Info())
		return
	}

	srv := newHTTPServer(*addr, serve.NewServer(e))
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	done := make(chan struct{})
	go func() {
		defer close(done)
		nextEra := *era
		for sig := range sigs {
			if sig == syscall.SIGHUP {
				nextEra++
				fmt.Printf("cachesimd: SIGHUP — reloading placement era %d\n", nextEra)
				e.Reload(nextEra)
				continue
			}
			fmt.Printf("cachesimd: %v — draining\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			srv.Shutdown(ctx)
			cancel()
			return
		}
	}()

	fmt.Printf("cachesimd: serving n=%d K=%d M=%d strategy=%s on %s (%s)\n",
		cfg.N(), cfg.K, cfg.M, cfg.Strategy.Kind, *addr, e.Info())
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "cachesimd:", err)
		os.Exit(1)
	}
	<-done
	fmt.Printf("cachesimd: drained after %d decisions (%s)\n", e.Served(), e.Info())
}

// newHTTPServer wraps the daemon handler in a server with connection
// deadlines: a client that stalls mid-header, trickles a body, or never
// reads its response is cut off instead of pinning a connection (and
// its pooled decision context) forever.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// buildConfig translates CLI flags into a served simulation
// configuration. The served mode draws queries and strategy picks from
// the engine's separate request and assignment streams, which is what
// makes a quiesced daemon bit-identical to the batch engine's trials.
func buildConfig(side int, topo string, k, m int, gamma float64, strategy string,
	radius, choices, requests int, miss, churn string, churnRate float64,
	faults string, faultRate, recoverRate float64,
	hetero, profile string, arrivalRate float64, seed uint64) (repro.Config, error) {
	var cfg repro.Config
	tp, err := grid.ParseTopology(topo)
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
		Requests: requests, MissPolicy: mp,
		Churn: ch, ChurnRate: churnRate,
		Faults: fm, FaultRate: faultRate, RecoverRate: recoverRate,
		Hetero: hm, Profile: pf, ArrivalRate: arrivalRate,
		Seed: seed,
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
	return cfg, nil
}
