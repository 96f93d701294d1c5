package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Chaos configures worker-side fault injection: every path the sweep
// must survive in production — crashes mid-shard, stragglers whose
// leases expire under them, and double deliveries — exercised on
// purpose. All decisions come from one seeded stream, so a chaos run is
// reproducible; none of them can change the merged artifact, which is
// the property the chaos CI job pins.
type Chaos struct {
	// KillProb abandons a leased shard halfway through its trials —
	// the worker "crashes": no completion, no further heartbeats, and
	// the lease expires back into the queue.
	KillProb float64
	// Kills caps the number of kills (0 = unlimited).
	Kills int
	// DelayProb stalls the shard before completion by up to MaxDelay —
	// a straggler whose lease may expire and be reassigned, producing a
	// duplicate completion for the idempotent merge to drop.
	DelayProb float64
	// MaxDelay bounds the injected stall.
	MaxDelay time.Duration
	// DupProb delivers the completion twice, exercising the
	// verified-equal duplicate path directly.
	DupProb float64
	// Seed roots the chaos decision stream.
	Seed uint64
}

// WorkerOptions tune a Worker; the zero value is ready for use.
type WorkerOptions struct {
	// ID names the worker in coordinator status (default "worker").
	ID string
	// Client overrides the HTTP client (default: 10s timeout).
	Client *http.Client
	// Poll is the idle backoff when every shard is leased elsewhere
	// (default 50ms).
	Poll time.Duration
	// BackoffBase/BackoffMax bound the exponential retry backoff on
	// transient coordinator errors (defaults 50ms / 2s).
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff.
	BackoffMax time.Duration
	// Chaos enables fault injection (nil = none).
	Chaos *Chaos
}

// Worker pulls shards from a coordinator over the work-queue protocol,
// folds each shard's trial block in ascending order on the sim.Runner it
// keeps per compiled world (the fold sim.World.RunBlock runs), and
// delivers content-hashed results. It retries transient coordinator
// errors (connection refused, 5xx) with exponential backoff plus
// jitter, heartbeats its lease every TTL/3 while computing, keeps
// computing even if a heartbeat is lost (the completion is keyed by
// content, so a reassigned shard merges idempotently), and drains
// gracefully on request.
type Worker struct {
	base  string
	opt   WorkerOptions
	rng   *rand.Rand // backoff jitter + chaos decisions
	kills int
	drain atomic.Bool

	lastCfg    sim.Config
	lastWorld  *sim.World
	lastRunner *sim.Runner

	// Shards/Abandoned/Duplicates count completed, chaos-killed and
	// duplicate-acked shards for reporting.
	Shards     int
	Abandoned  int
	Duplicates int
}

// NewWorker returns a worker bound to the coordinator at base
// (e.g. "http://127.0.0.1:8090").
func NewWorker(base string, opt WorkerOptions) *Worker {
	if opt.ID == "" {
		opt.ID = "worker"
	}
	if opt.Client == nil {
		opt.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if opt.Poll <= 0 {
		opt.Poll = 50 * time.Millisecond
	}
	if opt.BackoffBase <= 0 {
		opt.BackoffBase = 50 * time.Millisecond
	}
	if opt.BackoffMax <= 0 {
		opt.BackoffMax = 2 * time.Second
	}
	seed := uint64(0x5eed)
	if opt.Chaos != nil {
		seed = opt.Chaos.Seed
	}
	return &Worker{base: base, opt: opt, rng: rand.New(rand.NewPCG(seed, 0x7081))}
}

// RequestDrain asks the worker to exit after its current shard — the
// worker half of SIGTERM graceful drain.
func (w *Worker) RequestDrain() { w.drain.Store(true) }

// errTransient marks retryable coordinator failures.
var errTransient = errors.New("sweep: transient coordinator error")

// errKilled marks a chaos-injected worker crash.
var errKilled = errors.New("sweep: chaos kill")

// backoff returns the jittered exponential delay for retry attempt n
// (0-based): the raw delay doubles from BackoffBase up to BackoffMax,
// and the jitter draws uniformly from [delay/2, delay] so synchronized
// workers spread out instead of stampeding a recovering coordinator.
func (w *Worker) backoff(attempt int) time.Duration {
	d := w.opt.BackoffBase << min(attempt, 20)
	if d <= 0 || d > w.opt.BackoffMax {
		d = w.opt.BackoffMax
	}
	half := d / 2
	return half + time.Duration(w.rng.Int64N(int64(half)+1))
}

// Run pulls and executes shards until the coordinator reports the sweep
// done (nil), the context is cancelled, or a drain is requested (nil).
func (w *Worker) Run(ctx context.Context) error {
	attempt := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.drain.Load() {
			return nil
		}
		var reply LeaseReply
		if err := w.call(ctx, "/v1/lease", LeaseRequest{Worker: w.opt.ID}, &reply); err != nil {
			if !errors.Is(err, errTransient) {
				return err
			}
			if !sleepCtx(ctx, w.backoff(attempt)) {
				return ctx.Err()
			}
			attempt++
			continue
		}
		attempt = 0
		switch {
		case reply.Done, reply.Draining:
			return nil
		case reply.Shard == nil:
			if !sleepCtx(ctx, w.opt.Poll) {
				return ctx.Err()
			}
			continue
		}
		if err := w.runShard(ctx, reply); err != nil {
			switch {
			case errors.Is(err, errKilled):
				w.Abandoned++
				continue
			case ctx.Err() != nil:
				return ctx.Err()
			default:
				return err
			}
		}
		w.Shards++
	}
}

// runShard executes one leased shard under a heartbeat and delivers its
// result. Execution errors are reported to the coordinator via
// /v1/fail; panics are recovered into failures so a poisoned shard
// cannot take the worker down with it.
func (w *Worker) runShard(ctx context.Context, grant LeaseReply) error {
	sh := *grant.Shard
	hbStop := w.heartbeat(ctx, grant.Lease, time.Duration(grant.TTLMillis)*time.Millisecond)

	agg, err := w.execute(ctx, sh)
	hbStop()
	if err != nil {
		if errors.Is(err, errKilled) || ctx.Err() != nil {
			return err
		}
		// Report the failure so the coordinator can re-queue or fail the
		// shard; losing the report is fine — the lease will expire.
		w.call(ctx, "/v1/fail", FailRequest{Key: sh.Key, Error: err.Error()}, &struct{}{})
		return fmt.Errorf("sweep: shard %.12s: %w", sh.Key, err)
	}

	res := NewShardResult(sh.Key, agg)
	if c := w.opt.Chaos; c != nil && c.DelayProb > 0 && w.rng.Float64() < c.DelayProb {
		if !sleepCtx(ctx, time.Duration(w.rng.Int64N(int64(c.MaxDelay)+1))) {
			return ctx.Err()
		}
	}
	deliveries := 1
	if c := w.opt.Chaos; c != nil && c.DupProb > 0 && w.rng.Float64() < c.DupProb {
		deliveries = 2
	}
	for d := 0; d < deliveries; d++ {
		if err := w.complete(ctx, res); err != nil {
			return err
		}
	}
	return nil
}

// execute compiles the shard's configuration (memoizing the last world
// and its Runner, since consecutive shards often share a grid point) and
// folds its trial block in ascending order — the exact RunSeries partial.
func (w *Worker) execute(ctx context.Context, sh Shard) (agg sim.Aggregate, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
			w.lastWorld = nil // a Runner that panicked mid-trial is not reused
		}
	}()
	if w.lastWorld == nil || w.lastCfg != sh.Config {
		world, cerr := sim.Compile(sh.Config)
		if cerr != nil {
			return agg, cerr
		}
		w.lastWorld, w.lastCfg, w.lastRunner = world, sh.Config, world.NewRunner()
	}
	killAt := -1
	if c := w.opt.Chaos; c != nil && c.KillProb > 0 && (c.Kills == 0 || w.kills < c.Kills) &&
		w.rng.Float64() < c.KillProb {
		killAt = sh.Lo + (sh.Hi-sh.Lo)/2
	}
	r := w.lastRunner
	for t := sh.Lo; t < sh.Hi; t++ {
		if err := ctx.Err(); err != nil {
			return agg, err
		}
		if t == killAt {
			w.kills++
			return agg, errKilled
		}
		agg.Add(r.RunTrial(uint64(t)))
	}
	return agg, nil
}

// complete delivers a result, retrying transient errors indefinitely
// (bounded by ctx): the work is already paid for, and the idempotent
// merge makes re-delivery safe even across coordinator restarts.
func (w *Worker) complete(ctx context.Context, res ShardResult) error {
	for attempt := 0; ; attempt++ {
		var rep CompleteReply
		err := w.call(ctx, "/v1/complete", res, &rep)
		if err == nil {
			if rep.Duplicate {
				w.Duplicates++
			}
			return nil
		}
		if !errors.Is(err, errTransient) {
			return err
		}
		if !sleepCtx(ctx, w.backoff(attempt)) {
			return ctx.Err()
		}
	}
}

// heartbeat renews the lease every TTL/3 until stopped. A failed
// renewal (lost lease, restarted coordinator) does NOT abort the shard:
// the completion is keyed by content, so finishing is always at worst a
// verified duplicate.
func (w *Worker) heartbeat(ctx context.Context, id uint64, ttl time.Duration) (stop func()) {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				w.call(ctx, "/v1/renew", RenewRequest{Lease: id}, &struct{}{})
			}
		}
	}()
	return func() { close(done) }
}

// call POSTs one JSON request. Connection errors and 5xx answers map to
// errTransient (retryable); 4xx answers are permanent protocol errors.
func (w *Worker) call(ctx context.Context, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.opt.Client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("%w: %v", errTransient, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%w: %s from %s", errTransient, resp.Status, path)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("sweep: %s answered %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(out)
}

// sleepCtx sleeps d or until ctx is done; it reports whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
