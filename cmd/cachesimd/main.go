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
	"repro/internal/serve"
	"repro/internal/sim"
)

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachesimd:", err)
		os.Exit(2)
	}
	cfg := o.cfg
	w, err := repro.Compile(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachesimd:", err)
		os.Exit(2)
	}
	e := serve.New(w, o.era)
	defer e.Close()

	if o.loadgen > 0 {
		res := serve.Loadgen(e, o.loadgen, o.conns, o.batch)
		fmt.Printf("loadgen: %d decisions in %v over %d conns (batch %d)\n",
			res.Decisions, res.Elapsed.Round(time.Millisecond), res.Conns, res.Batch)
		fmt.Printf("rate:    %.0f decisions/s\n", res.PerSec)
		fmt.Printf("state:   %s\n", e.Info())
		return
	}

	srv := newHTTPServer(o.addr, serve.NewServer(e))
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	done := make(chan struct{})
	go func() {
		defer close(done)
		nextEra := o.era
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
		cfg.N(), cfg.K, cfg.M, cfg.Strategy.Kind, o.addr, e.Info())
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

// options is cachesimd's command line: the configuration it serves,
// the placement era it starts at, and where or how it serves.
type options struct {
	cfg                   repro.Config
	era                   uint64
	addr                  string
	loadgen, conns, batch int
}

// parseArgs binds the flags to a sim.PointSpec and translates it. The
// served mode draws queries and strategy picks from the engine's
// separate request and assignment streams, which is what makes a
// quiesced daemon bit-identical to the batch engine's trials. It skips
// sim.CheckBarriers: Snapshot.Advance applies churn, faults and
// arrivals at its own batch cadence. A bad flag exits the process with
// status 2, as flag.Parse does.
func parseArgs(args []string) (options, error) {
	var p sim.PointSpec
	var o options
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.IntVar(&p.Side, "side", 32, "lattice side L (n = L^2 servers)")
	fs.StringVar(&p.Topology, "topology", "torus", "torus or grid")
	fs.IntVar(&p.K, "k", 2000, "library size K")
	fs.IntVar(&p.M, "m", 4, "cache size M")
	fs.Float64Var(&p.Gamma, "gamma", 0, "Zipf exponent (0 = uniform popularity)")
	fs.StringVar(&p.Strategy, "strategy", "two-choices", "nearest, two-choices, one-choice or oracle")
	fs.IntVar(&p.Radius, "radius", 6, "proximity radius r in hops (-1 = unbounded)")
	fs.IntVar(&p.Choices, "choices", 2, "number of sampled candidates d")
	fs.StringVar(&p.Miss, "miss", "resample", "miss policy: resample, escalate or origin")
	fs.StringVar(&p.Churn, "churn", "none", "between-batch re-placement: none, replicas or drift")
	fs.Float64Var(&p.ChurnRate, "churn-rate", 0, "expected replica migrations per served request")
	fs.StringVar(&p.Faults, "faults", "none", "node fault injection: none, crash or regional")
	fs.Float64Var(&p.FaultRate, "fault-rate", 0, "expected crash events per served request")
	fs.Float64Var(&p.RecoverRate, "recover-rate", 0, "expected recovery events per served request")
	fs.StringVar(&p.Hetero, "hetero", "none", "node heterogeneity: none, capacity or arrival")
	fs.StringVar(&p.Profile, "profile", "uniform", "per-node cache-size profile under -hetero: uniform, two-tier or power-law")
	fs.Float64Var(&p.ArrivalRate, "arrival-rate", 0, "expected node arrivals per served request (with -hetero arrival)")
	seed := fs.Uint64("seed", 2017, "root random seed")
	fs.Uint64Var(&o.era, "era", 0, "initial placement era (trial index under -seed)")
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	fs.IntVar(&o.loadgen, "loadgen", 0, "serve N decisions in-process and exit (no HTTP)")
	fs.IntVar(&o.conns, "conns", 8, "loadgen concurrent decision contexts")
	fs.IntVar(&o.batch, "batch", 256, "loadgen queries per batch")
	fs.Parse(args)
	var err error
	o.cfg, err = p.Config(*seed)
	return o, err
}
