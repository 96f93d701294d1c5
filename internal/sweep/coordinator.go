package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"repro/internal/sim"
)

// Lease/assignment errors.
var (
	// ErrLeaseGone reports a renewal for a lease that expired or was
	// never granted (e.g. the coordinator restarted since the grant).
	ErrLeaseGone = errors.New("sweep: lease expired or unknown")
	// ErrResultMismatch reports a duplicate completion whose aggregate
	// differs from the recorded one — impossible for correct
	// deterministic workers, so it is surfaced loudly instead of merged.
	ErrResultMismatch = errors.New("sweep: duplicate completion does not match recorded result")
	// ErrUnknownShard reports a completion or failure for a key outside
	// this sweep.
	ErrUnknownShard = errors.New("sweep: unknown shard key")
	// ErrCorruptResult reports a completion whose aggregate fails its own
	// hash, or that names no shard. Resending the same bytes cannot
	// succeed, so /v1/complete answers it 422 and the worker stops.
	ErrCorruptResult = errors.New("sweep: corrupt shard result")
)

// DefaultLeaseTTL is the lease deadline granted to workers; renewals
// arrive every TTL/3, so one missed heartbeat survives and a crashed
// worker's shard re-enters the queue within a TTL.
const DefaultLeaseTTL = 10 * time.Second

// DefaultMaxAttempts bounds explicit execution failures per shard
// (worker-reported errors, not lease expiries): past it the shard — and
// the sweep — is marked failed rather than retried forever.
const DefaultMaxAttempts = 5

// CoordinatorOptions tune a Coordinator; the zero value is ready for
// production use.
type CoordinatorOptions struct {
	// LeaseTTL is the lease deadline (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
	// MaxAttempts bounds worker-reported failures per shard
	// (0 = DefaultMaxAttempts).
	MaxAttempts int
	// FlakeProb injects chaos: the HTTP front answers 503 to that
	// fraction of lease/complete calls, exercising worker retry paths.
	FlakeProb float64
	// FlakeSeed seeds the chaos injection stream.
	FlakeSeed uint64
	// Now overrides the clock (tests).
	Now func() time.Time
}

type shardPhase int

const (
	shardPending shardPhase = iota
	shardLeased
	shardDone
	shardFailed
)

// lease is one outstanding grant.
type lease struct {
	shard    int
	worker   string
	deadline time.Time
}

// Coordinator owns a sweep: the expanded shard list, the lease table,
// the completion journal and the merged results. All methods are safe
// for concurrent use; the HTTP front (Handler) is a thin JSON wrapper
// over Lease/Renew/Complete/Fail/Status.
type Coordinator struct {
	spec     *Spec
	specHash string
	points   []Point
	shards   []Shard
	journal  *Journal // nil = ephemeral (no crash recovery)

	mu        sync.Mutex
	phase     []shardPhase
	attempts  []int
	byKey     map[string]int
	leases    map[uint64]*lease
	results   map[string]ShardResult
	nextLease uint64
	draining  bool
	failure   error
	done      chan struct{}
	expiries  int // leases reclaimed after deadline
	dupes     int // duplicate completions verified equal and dropped
	dropped   int // journal lines dropped on recovery (immutable)

	leaseTTL    time.Duration
	maxAttempts int
	now         func() time.Time

	flakeMu sync.Mutex
	flake   *rand.Rand
	flakeP  float64
}

// NewCoordinator expands spec, opens (or recovers) the journal at
// journalPath — "" runs without one — and returns a coordinator ready
// to serve leases. Shards already present in the journal are marked
// done, so a restart resumes instead of re-running completed work.
func NewCoordinator(spec *Spec, journalPath string, opt CoordinatorOptions) (*Coordinator, error) {
	shards, err := spec.Shards()
	if err != nil {
		return nil, err
	}
	points, err := spec.Points()
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		spec:        spec,
		specHash:    spec.Hash(),
		points:      points,
		shards:      shards,
		phase:       make([]shardPhase, len(shards)),
		attempts:    make([]int, len(shards)),
		byKey:       make(map[string]int, len(shards)),
		leases:      map[uint64]*lease{},
		results:     make(map[string]ShardResult, len(shards)),
		done:        make(chan struct{}),
		leaseTTL:    opt.LeaseTTL,
		maxAttempts: opt.MaxAttempts,
		now:         opt.Now,
	}
	if c.leaseTTL <= 0 {
		c.leaseTTL = DefaultLeaseTTL
	}
	if c.maxAttempts <= 0 {
		c.maxAttempts = DefaultMaxAttempts
	}
	if c.now == nil {
		c.now = time.Now
	}
	if opt.FlakeProb > 0 {
		c.flakeP = opt.FlakeProb
		c.flake = rand.New(rand.NewPCG(opt.FlakeSeed, 0x5eed))
	}
	for i, sh := range shards {
		c.byKey[sh.Key] = i
	}
	if journalPath != "" {
		j, recovered, dropped, err := OpenJournal(journalPath, c.specHash)
		if err != nil {
			return nil, err
		}
		c.journal, c.dropped = j, dropped
		for _, res := range recovered {
			i, ok := c.byKey[res.Key]
			switch {
			case !ok:
				// Verified, but under a key no shard of this spec has: a
				// build whose sim.Config marshals differently wrote it.
				c.dropped++
			case c.phase[i] != shardDone:
				c.phase[i] = shardDone
				c.results[res.Key] = res
			}
		}
	}
	c.mu.Lock()
	c.checkTerminal()
	c.mu.Unlock()
	return c, nil
}

// Spec returns the coordinated sweep spec.
func (c *Coordinator) Spec() *Spec { return c.spec }

// checkTerminal closes the done channel once no shard can make further
// progress: every shard settled, or — while draining — every lease
// settled (pending shards stay in the journal's debt for the next
// invocation to resume). Callers must hold c.mu.
func (c *Coordinator) checkTerminal() {
	var open int
	for _, p := range c.phase {
		switch {
		case p == shardLeased:
			open++
		case p == shardPending && !c.draining:
			open++
		}
	}
	if open == 0 {
		select {
		case <-c.done:
		default:
			close(c.done)
		}
	}
}

// reclaimExpired returns expired leases to the pending pool. Callers
// must hold c.mu.
func (c *Coordinator) reclaimExpired(now time.Time) {
	for id, l := range c.leases {
		if now.After(l.deadline) {
			if c.phase[l.shard] == shardLeased {
				c.phase[l.shard] = shardPending
				c.expiries++
			}
			delete(c.leases, id)
		}
	}
}

// Lease hands the next available shard to a worker. The reply is one
// of: a grant, Done (all work finished or failed — exit), Draining
// (coordinator shutting down — exit), or empty (everything is leased
// right now — poll again shortly; a straggler's lease may expire).
func (c *Coordinator) Lease(worker string) LeaseReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return LeaseReply{Draining: true}
	}
	now := c.now()
	c.reclaimExpired(now)
	select {
	case <-c.done:
		return LeaseReply{Done: true}
	default:
	}
	for i := range c.shards {
		if c.phase[i] != shardPending {
			continue
		}
		c.phase[i] = shardLeased
		c.nextLease++
		id := c.nextLease
		c.leases[id] = &lease{shard: i, worker: worker, deadline: now.Add(c.leaseTTL)}
		sh := c.shards[i]
		return LeaseReply{Shard: &sh, Lease: id, TTLMillis: c.leaseTTL.Milliseconds()}
	}
	return LeaseReply{} // all in flight; poll again
}

// Renew extends a lease's deadline (the worker heartbeat).
func (c *Coordinator) Renew(id uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpired(c.now())
	l, ok := c.leases[id]
	if !ok {
		return ErrLeaseGone
	}
	l.deadline = c.now().Add(c.leaseTTL)
	return nil
}

// Complete records one shard result. Completions are idempotent and
// at-least-once: they are keyed by shard content hash, accepted even
// after the lease expired or the coordinator restarted, journaled
// before they are acknowledged, and duplicates are verified equal and
// dropped (a mismatched duplicate is an error — deterministic workers
// cannot produce one).
func (c *Coordinator) Complete(res ShardResult) (duplicate bool, err error) {
	if err := res.Verify(); err != nil {
		return false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.byKey[res.Key]
	if !ok {
		return false, ErrUnknownShard
	}
	if c.phase[i] == shardDone {
		if c.results[res.Key].Hash != res.Hash {
			return false, fmt.Errorf("%w: shard %.12s", ErrResultMismatch, res.Key)
		}
		c.dupes++
		return true, nil
	}
	if c.journal != nil {
		if err := c.journal.Append(res); err != nil {
			return false, fmt.Errorf("sweep: journal append: %w", err)
		}
	}
	c.phase[i] = shardDone
	c.results[res.Key] = res
	for id, l := range c.leases {
		if l.shard == i {
			delete(c.leases, id)
		}
	}
	c.checkTerminal()
	return false, nil
}

// Fail records a worker-reported execution error. The shard re-enters
// the queue until MaxAttempts is exhausted, at which point the shard —
// and the sweep — is marked failed.
func (c *Coordinator) Fail(key, msg string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.byKey[key]
	if !ok {
		return ErrUnknownShard
	}
	if c.phase[i] == shardDone || c.phase[i] == shardFailed {
		return nil
	}
	for id, l := range c.leases {
		if l.shard == i {
			delete(c.leases, id)
		}
	}
	c.attempts[i]++
	if c.attempts[i] >= c.maxAttempts {
		c.phase[i] = shardFailed
		if c.failure == nil {
			c.failure = fmt.Errorf("sweep: shard %.12s failed %d times, last error: %s", key, c.attempts[i], msg)
		}
		c.checkTerminal()
		return nil
	}
	c.phase[i] = shardPending
	return nil
}

// Drain switches the coordinator into graceful shutdown: no new leases
// are granted (workers are told to exit), in-flight completions are
// still accepted and journaled, and Wait returns once every outstanding
// lease has completed or expired — pending shards stay in the journal's
// debt for the next invocation to resume. A watcher goroutine reclaims
// leases whose workers died mid-drain, so Wait cannot hang on a ghost.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	already := c.draining
	c.draining = true
	c.checkTerminal()
	c.mu.Unlock()
	if already {
		return
	}
	go func() {
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-t.C:
				c.mu.Lock()
				c.reclaimExpired(c.now())
				c.checkTerminal()
				c.mu.Unlock()
			}
		}
	}()
}

// Status snapshots the sweep's progress.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimExpired(c.now())
	st := Status{SpecHash: c.specHash, Total: len(c.shards), Draining: c.draining}
	for _, p := range c.phase {
		switch p {
		case shardDone:
			st.Done++
		case shardLeased:
			st.Leased++
		case shardFailed:
			st.Failed++
		default:
			st.Pending++
		}
	}
	return st
}

// Expiries reports how many leases were reclaimed after their deadline
// (crashed or stalled workers); Dupes reports how many duplicate
// completions were verified equal and dropped.
func (c *Coordinator) Expiries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.expiries
}

// Dupes reports duplicate completions dropped after verification.
func (c *Coordinator) Dupes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dupes
}

// JournalDropped reports how many lines of a recovered journal were
// dropped as torn, unverifiable or naming no shard of the spec. Their
// shards run again.
func (c *Coordinator) JournalDropped() int { return c.dropped }

// Wait blocks until every shard is done (nil) or the sweep failed
// permanently, or ctx is cancelled.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-c.done:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failure
}

// Merged folds the completed shard results into per-point aggregates in
// the exact partition and order of sim.RunSeries (see MergeShards).
func (c *Coordinator) Merged() ([]sim.Aggregate, error) {
	c.mu.Lock()
	results := make(map[string]ShardResult, len(c.results))
	for k, v := range c.results {
		results[k] = v
	}
	c.mu.Unlock()
	return MergeShards(c.spec, results)
}

// Close releases the journal.
func (c *Coordinator) Close() error {
	if c.journal != nil {
		return c.journal.Close()
	}
	return nil
}

// maxBodyBytes caps work-queue request bodies; a shard result is a few
// KB of JSON, so anything near the cap is garbage, not work.
const maxBodyBytes = 1 << 20

// Handler returns the coordinator's HTTP front: the minimal work-queue
// protocol documented in protocol.go, with every body capped by
// http.MaxBytesReader and chaos 503 injection when FlakeProb is set.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		if c.flaky() {
			http.Error(w, "chaos: flaked", http.StatusServiceUnavailable)
			return
		}
		var req LeaseRequest
		if !decodeBody(w, r, &req) {
			return
		}
		writeJSON(w, c.Lease(req.Worker))
	})
	mux.HandleFunc("POST /v1/renew", func(w http.ResponseWriter, r *http.Request) {
		var req RenewRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if err := c.Renew(req.Lease); err != nil {
			http.Error(w, err.Error(), http.StatusGone)
			return
		}
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) {
		if c.flaky() {
			http.Error(w, "chaos: flaked", http.StatusServiceUnavailable)
			return
		}
		var res ShardResult
		if !decodeBody(w, r, &res) {
			return
		}
		dup, err := c.Complete(res)
		switch {
		case errors.Is(err, ErrResultMismatch):
			http.Error(w, err.Error(), http.StatusConflict)
			return
		case errors.Is(err, ErrUnknownShard):
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		case errors.Is(err, ErrCorruptResult):
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		case err != nil: // a journal append failed: worth retrying
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, CompleteReply{Duplicate: dup})
	})
	mux.HandleFunc("POST /v1/fail", func(w http.ResponseWriter, r *http.Request) {
		var req FailRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if err := c.Fail(req.Key, req.Error); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Status())
	})
	return mux
}

// flaky rolls the chaos 503 die.
func (c *Coordinator) flaky() bool {
	if c.flake == nil {
		return false
	}
	c.flakeMu.Lock()
	defer c.flakeMu.Unlock()
	return c.flake.Float64() < c.flakeP
}

// decodeBody parses a capped JSON body into v. It answers 413 past the
// cap and 400 unless the body is exactly one JSON document of v's shape:
// unknown fields, a second value and trailing garbage are all refused,
// as ParseSpec refuses them. (The daemon's /v1/place refuses the last
// two but ignores unknown fields, as json.Unmarshal does.)
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		_, err = dec.Token()
		if errors.Is(err, io.EOF) {
			return true
		}
		if err == nil {
			err = errors.New("trailing data after the JSON document")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return false
	}
	http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
	return false
}

// writeJSON answers with a JSON body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
