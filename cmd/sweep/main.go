// Command sweep is the crash-tolerant sweep orchestrator: it expands a
// declarative JSON grid spec (or a named preset) into content-keyed
// (Config, trial-block) shards, distributes them to worker processes
// over a minimal HTTP work-queue protocol with lease-based assignment
// and a resumable fsync'd journal, and merges the results into CSV and
// JSON artifacts that are byte-identical to a single-process run — no
// matter how many workers crash, stall or double-deliver, and even if
// the coordinator itself is killed and restarted (see docs/sweep.md).
//
// Everything in one process (coordinator + 4 loopback workers):
//
//	sweep -preset smoke -workers 4 -out out/smoke
//
// The same sweep split across machines:
//
//	sweep -mode serve -spec grid.json -addr :8090 -out out/grid
//	sweep -mode work -join http://coord:8090        # on each worker box
//
// Kill the coordinator at any point and rerun the same serve command:
// it resumes from out/grid.journal without re-running finished shards.
// The single-host reference (no HTTP, no journal, same bytes):
//
//	sweep -mode direct -preset smoke -out out/golden
//
// A chaos run — workers randomly crash mid-shard, stall and
// double-deliver, the coordinator injects 503s — must produce the same
// artifact bytes as the direct run; CI enforces exactly that:
//
//	sweep -preset smoke -workers 4 -chaos -out out/chaotic
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	var (
		mode     = flag.String("mode", "run", "run, serve, work or direct")
		specPath = flag.String("spec", "", "sweep grid spec JSON file")
		preset   = flag.String("preset", "", fmt.Sprintf("named preset spec %v (alternative to -spec)", experiments.SweepIDs()))
		out      = flag.String("out", "sweep-out", "artifact base path (writes .csv and .json)")
		journal  = flag.String("journal", "", "coordinator journal path (default <out>.journal; \"off\" disables)")
		workers  = flag.Int("workers", 4, "in-process workers (mode run)")
		addr     = flag.String("addr", "127.0.0.1:0", "coordinator listen address (modes run, serve)")
		join     = flag.String("join", "", "coordinator URL to join (mode work)")
		leaseTTL = flag.Duration("lease-ttl", sweep.DefaultLeaseTTL, "lease deadline; crashed workers' shards re-queue after this")
		chaos    = flag.Bool("chaos", false, "inject worker kills, stalls, duplicate deliveries and coordinator 503s")
		kill     = flag.Float64("chaos-kill", 0.2, "with -chaos: probability a worker abandons a shard mid-block")
		delay    = flag.Float64("chaos-delay", 0.2, "with -chaos: probability a completion is stalled")
		dup      = flag.Float64("chaos-dup", 0.2, "with -chaos: probability a completion is delivered twice")
		flake    = flag.Float64("chaos-flake", 0.1, "with -chaos: probability the coordinator answers 503")
		seed     = flag.Uint64("chaos-seed", 1, "chaos decision seed")
	)
	flag.Parse()

	if err := run(*mode, *specPath, *preset, *out, *journal, *join, *addr,
		*workers, *leaseTTL, chaosFor(*chaos, *kill, *delay, *dup, *seed), flakeFor(*chaos, *flake)); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// chaosFor builds the worker chaos profile (nil when chaos is off).
func chaosFor(on bool, kill, delay, dup float64, seed uint64) *sweep.Chaos {
	if !on {
		return nil
	}
	return &sweep.Chaos{
		KillProb: kill, DelayProb: delay, MaxDelay: 100 * time.Millisecond,
		DupProb: dup, Seed: seed,
	}
}

// flakeFor returns the coordinator 503 probability (0 when chaos is off).
func flakeFor(on bool, flake float64) float64 {
	if !on {
		return 0
	}
	return flake
}

// run dispatches one mode; split from main so tests can drive it.
func run(mode, specPath, preset, out, journal, join, addr string,
	workers int, leaseTTL time.Duration, chaos *sweep.Chaos, flakeProb float64) error {
	switch mode {
	case "work":
		return workMode(join, chaos)
	case "direct", "run", "serve":
		spec, err := loadSpec(specPath, preset)
		if err != nil {
			return err
		}
		if mode == "direct" {
			aggs, err := sweep.RunDirect(spec)
			if err != nil {
				return err
			}
			return writeArtifacts(out, spec, aggs)
		}
		if workers < 1 && mode == "run" {
			return fmt.Errorf("mode run needs at least one worker, got %d", workers)
		}
		if mode == "serve" {
			workers = 0
		}
		return coordinate(spec, out, journalPath(journal, out), addr, workers, leaseTTL, chaos, flakeProb)
	default:
		return fmt.Errorf("unknown mode %q (want run, serve, work or direct)", mode)
	}
}

// loadSpec resolves -spec/-preset into a parsed sweep spec.
func loadSpec(specPath, preset string) (*sweep.Spec, error) {
	switch {
	case specPath != "" && preset != "":
		return nil, errors.New("-spec and -preset are mutually exclusive")
	case preset != "":
		return experiments.SweepSpec(preset)
	case specPath != "":
		data, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		return sweep.ParseSpec(data)
	default:
		return nil, errors.New("one of -spec or -preset is required")
	}
}

// journalPath resolves the -journal flag ("" defaults next to the
// artifacts, "off" disables journaling).
func journalPath(flagVal, out string) string {
	switch flagVal {
	case "":
		return out + ".journal"
	case "off":
		return ""
	default:
		return flagVal
	}
}

// newHTTPServer wraps a handler in a server with the same hardening as
// cmd/cachesimd: header/body/write deadlines so a stuck peer cannot
// pin a connection forever.
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

// coordinate runs the coordinator (modes run and serve): it serves the
// work queue on addr, optionally drives n loopback workers, waits for
// every shard, and writes the merged artifacts. SIGINT/SIGTERM drain
// gracefully: no new leases, in-flight completions land in the journal,
// and a later invocation resumes from it.
func coordinate(spec *sweep.Spec, out, journal, addr string, n int,
	leaseTTL time.Duration, chaos *sweep.Chaos, flakeProb float64) error {
	if out != "" {
		if dir := filepath.Dir(out); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}
	coord, err := sweep.NewCoordinator(spec, journal, sweep.CoordinatorOptions{
		LeaseTTL:  leaseTTL,
		FlakeProb: flakeProb,
		FlakeSeed: 2017,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := newHTTPServer(addr, coord.Handler())
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	st := coord.Status()
	if note := resumeNote(st.Done, st.Total, coord.JournalDropped()); note != "" {
		fmt.Println(note)
	}
	fmt.Printf("sweep: %s (%d shards, %d done) on %s\n", spec.Name, st.Total, st.Done, base)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var ws []*sweep.Worker
	werrs := make(chan error, n)
	for i := 0; i < n; i++ {
		w := sweep.NewWorker(base, sweep.WorkerOptions{
			ID:    fmt.Sprintf("local-%d", i),
			Chaos: chaosSeeded(chaos, uint64(i)),
		})
		ws = append(ws, w)
		go func(w *sweep.Worker) { werrs <- w.Run(ctx) }(w)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		sig, ok := <-sigs
		if !ok {
			return
		}
		fmt.Printf("sweep: %v — draining (journal %s keeps finished shards)\n", sig, journal)
		coord.Drain()
		for _, w := range ws {
			w.RequestDrain()
		}
		// A second signal aborts immediately.
		<-sigs
		cancel()
	}()

	err = coord.Wait(ctx)
	for range ws {
		if werr := <-werrs; werr != nil && err == nil && !errors.Is(werr, context.Canceled) {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	final := coord.Status()
	if final.Done < final.Total {
		return fmt.Errorf("drained with %d/%d shards done; rerun with the same journal to resume", final.Done, final.Total)
	}
	aggs, err := coord.Merged()
	if err != nil {
		return err
	}
	if err := writeArtifacts(out, spec, aggs); err != nil {
		return err
	}
	fmt.Printf("sweep: %d shards merged (%d lease expiries, %d duplicates dropped) → %s.{csv,json}\n",
		final.Total, coord.Expiries(), coord.Dupes(), out)
	return nil
}

// resumeNote reports what the coordinator recovered from an existing
// journal, "" when it recovered and dropped nothing. A journal whose
// every record was dropped is most likely not torn but written by a
// build whose shard keys or results hash differently, and the note says
// so.
func resumeNote(done, total, dropped int) string {
	if done == 0 && dropped == 0 {
		return ""
	}
	note := fmt.Sprintf("sweep: resumed %d of %d shards, dropped %d journal lines", done, total, dropped)
	if done == 0 {
		note += " (no record verified against a shard of this spec: the journal was most likely written by a different build, so every shard runs again)"
	}
	return note
}

// chaosSeeded gives each worker its own chaos stream.
func chaosSeeded(c *sweep.Chaos, i uint64) *sweep.Chaos {
	if c == nil {
		return nil
	}
	cc := *c
	cc.Seed = c.Seed + i*0x9e37
	return &cc
}

// workMode runs a single worker against a remote coordinator until the
// sweep is done or SIGINT/SIGTERM asks it to finish its current shard
// and exit.
func workMode(join string, chaos *sweep.Chaos) error {
	if join == "" {
		return errors.New("mode work requires -join URL")
	}
	host, _ := os.Hostname()
	w := sweep.NewWorker(join, sweep.WorkerOptions{
		ID:    fmt.Sprintf("%s-%d", host, os.Getpid()),
		Chaos: chaos,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if _, ok := <-sigs; !ok {
			return
		}
		fmt.Println("sweep: draining after current shard")
		w.RequestDrain()
		<-sigs
		cancel()
	}()
	if err := w.Run(ctx); err != nil {
		return err
	}
	fmt.Printf("sweep: worker done (%d shards, %d abandoned, %d duplicate acks)\n",
		w.Shards, w.Abandoned, w.Duplicates)
	return nil
}

// writeArtifacts writes <out>.csv and <out>.json atomically (temp file
// plus rename), so a crash mid-write never leaves a torn artifact.
func writeArtifacts(out string, spec *sweep.Spec, aggs []sim.Aggregate) error {
	if dir := filepath.Dir(out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	write := func(path string, emit func(w *os.File) error) error {
		f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
		if err != nil {
			return err
		}
		defer os.Remove(f.Name())
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return os.Rename(f.Name(), path)
	}
	if err := write(out+".csv", func(f *os.File) error { return sweep.WriteCSV(f, spec, aggs) }); err != nil {
		return err
	}
	return write(out+".json", func(f *os.File) error { return sweep.WriteJSON(f, spec, aggs) })
}
