// Package serve promotes the batch simulation engine to a long-running
// concurrent placement service: the paper's two-choices allocation
// answered as an online query — "which replica of file j should user u
// fetch?" — at millions of decisions per second on one host.
//
// The design separates the single-runner mutable state of the batch
// engine into two halves with different ownership:
//
//   - Read-mostly world state (placement CSR + tile index + liveness
//     mask), packaged as a sim.Snapshot and published through an
//     atomic.Pointer. Readers never lock: a decision context pins the
//     current snapshot once per batch and answers every query in the
//     batch against that immutable version (epoch-based copy-on-write).
//   - Per-context decision state (strategy scratch, load accumulator,
//     RNG), pooled per connection so the hot path allocates nothing.
//
// A single mutator goroutine owns a private shadow snapshot. Served
// batches report their sizes; the mutator drains the count, applies the
// world's churn and fault schedules to the shadow (the exact event
// machinery of the batch engine — see sim.Snapshot.Advance), clones it
// and publishes the clone. Readers therefore never observe a
// half-spliced placement or a torn liveness mask, and a quiesced world
// (no churn, no faults) serves one frozen snapshot forever,
// bit-identical to sim.RunTrial on the same era (pinned by the golden
// tests).
package serve

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"repro/internal/ballsbins"
	"repro/internal/core"
	"repro/internal/sim"
)

// Pair is one placement query: user (origin node) u requests file j.
type Pair struct {
	User int32 `json:"u"`
	File int32 `json:"f"`
}

// Decision is the service's answer to one Pair: the serving node, the
// torus hop distance user → node, and whether the search had to reject
// dead candidates (Retried) on the way.
type Decision struct {
	Node    int32 `json:"node"`
	Hops    int32 `json:"hops"`
	Retried bool  `json:"retried,omitempty"`
}

// Stamp names the exact state version a batch of decisions observed:
// the placement era (trial index it was compiled from) and the mutation
// sequence number within that era. Every decision of one PlaceBatch
// call carries the same stamp — that is the consistency contract the
// snapshot engine exists to provide.
type Stamp struct {
	Era uint64 `json:"era"`
	Seq uint64 `json:"seq"`
}

// Engine is the served-mode core: it owns the published snapshot
// pointer, the mutator goroutine evolving the shadow copy, and the
// decision-context pool. Safe for concurrent use by any number of
// goroutines; Close stops the mutator.
type Engine struct {
	w   *sim.World
	cur atomic.Pointer[sim.Snapshot]

	// dynamic is true when the world mutates mid-trial (churn, faults or
	// arrivals); a quiesced world never wakes the mutator and never
	// republishes.
	dynamic bool

	pending atomic.Int64  // decisions served since the last mutator drain
	wake    chan struct{} // capacity 1: batch-boundary doorbell
	reload  chan uint64   // era reload requests (SIGHUP path)
	quit    chan struct{}
	wg      sync.WaitGroup

	served atomic.Int64 // total decisions answered (monotonic, /metrics)

	ctxPool sync.Pool
	ctxSeq  atomic.Uint64
}

// New builds an Engine over w serving placement era. The era's snapshot
// is compiled synchronously (so the first query never waits) and the
// mutator goroutine is started; callers must Close the engine to stop
// it.
func New(w *sim.World, era uint64) *Engine {
	e := &Engine{
		w:       w,
		dynamic: w.Config().MutatesMidTrial(),
		wake:    make(chan struct{}, 1),
		reload:  make(chan uint64),
		quit:    make(chan struct{}),
	}
	shadow := w.Snapshot(era)
	e.cur.Store(shadow.Clone())
	e.wg.Add(1)
	go e.mutator(shadow)
	return e
}

// Close stops the mutator goroutine and waits for it to exit. The
// engine keeps answering reads after Close (the published snapshot
// stays valid); it just stops evolving.
func (e *Engine) Close() {
	close(e.quit)
	e.wg.Wait()
}

// Reload compiles a fresh snapshot for placement era and publishes it,
// abandoning the current shadow — the SIGHUP semantics: in-flight
// batches finish against the old snapshot, later batches pin the new
// one. Blocks until the mutator has accepted the request.
func (e *Engine) Reload(era uint64) {
	select {
	case e.reload <- era:
	case <-e.quit:
	}
}

// Snapshot returns the currently published snapshot (never nil). The
// returned value is immutable — safe to read until program exit.
func (e *Engine) Snapshot() *sim.Snapshot { return e.cur.Load() }

// Info returns the published snapshot's era diagnostics — the same
// stamp cachesim -v prints for batch trials.
func (e *Engine) Info() sim.SnapshotInfo { return e.cur.Load().Info() }

// Served returns the total number of decisions answered.
func (e *Engine) Served() int64 { return e.served.Load() }

// World returns the world the engine serves.
func (e *Engine) World() *sim.World { return e.w }

// mutator is the single goroutine that owns the shadow snapshot. It
// wakes at batch boundaries, folds the decisions served since the last
// drain into the churn/fault schedules, and publishes a fresh clone.
// The clone-on-publish discipline is what lets readers skip locking
// entirely: the published value is never written again.
func (e *Engine) mutator(shadow *sim.Snapshot) {
	defer e.wg.Done()
	for {
		select {
		case <-e.wake:
			n := e.pending.Swap(0)
			if n == 0 {
				continue
			}
			shadow.Advance(int(n))
			e.cur.Store(shadow.Clone())
		case era := <-e.reload:
			shadow = e.w.Snapshot(era)
			e.pending.Store(0)
			e.cur.Store(shadow.Clone())
		case <-e.quit:
			return
		}
	}
}

// batchDone reports a served batch of n decisions to the mutator. For
// a quiesced world this is a pair of atomic adds and nothing more —
// the doorbell channel is never touched.
func (e *Engine) batchDone(n int) {
	e.served.Add(int64(n))
	if !e.dynamic {
		return
	}
	e.pending.Add(int64(n))
	select {
	case e.wake <- struct{}{}:
	default: // doorbell already rung; the mutator will drain our count too
	}
}

// Context is one connection's pooled decision state: a strategy
// instance (with its per-call scratch) bound to a pinned snapshot, a
// private load accumulator, and a private RNG. A Context is NOT safe
// for concurrent use — each goroutine must Get its own — but any number
// of Contexts run concurrently against the same Engine.
type Context struct {
	e     *Engine
	snap  *sim.Snapshot
	strat core.Strategy
	loads *ballsbins.Loads
	// view is what the strategy compares through: loads itself on
	// homogeneous worlds, a capacity-weighted wrapper (load/C_u) under a
	// non-uniform hetero profile. Writes always hit loads directly.
	view core.LoadReader
	rng  *rand.Rand
	id   uint64
}

// Get returns a decision context, reusing a pooled one when available.
// Pair with Put to keep the steady-state hot path allocation-free.
func (e *Engine) Get() *Context {
	if c, _ := e.ctxPool.Get().(*Context); c != nil {
		return c
	}
	return e.newContext()
}

// Put returns a context to the pool.
func (e *Engine) Put(c *Context) { e.ctxPool.Put(c) }

// newContext builds a fresh context bound to the published snapshot.
// Context 0 consumes the era's pure assignment stream — a single
// context serving a quiesced era therefore reproduces the batch trial's
// decision sequence exactly (the golden pin). Later contexts perturb
// the seed with their id for distinct but deterministic streams.
func (e *Engine) newContext() *Context {
	snap := e.cur.Load()
	c := &Context{
		e:     e,
		snap:  snap,
		strat: snap.NewStrategy(),
		loads: ballsbins.NewLoads(e.w.N()),
		id:    e.ctxSeq.Add(1) - 1,
	}
	c.view = snap.WrapLoads(c.loads)
	c.seedRNG()
	return c
}

// seedRNG (re)seeds the context's assignment RNG for the snapshot's
// era.
func (c *Context) seedRNG() {
	s1, s2 := c.e.w.AssignSeed(c.snap.Era())
	mix := c.id * 0x9e3779b97f4a7c15
	c.rng = rand.New(rand.NewPCG(s1^mix, s2+mix))
}

// refresh re-pins the context to the published snapshot when it moved:
// rebind the strategy (and liveness mask) to the new placement, and on
// an era change also reset the load accumulator and reseed the RNG —
// a new era is a new trial, not a continuation.
func (c *Context) refresh() {
	snap := c.e.cur.Load()
	if snap == c.snap {
		return
	}
	newEra := snap.Era() != c.snap.Era()
	c.snap = snap
	c.strat = snap.Bind(c.strat)
	if newEra {
		c.loads.Reset()
		// The weighted multipliers are era-scoped (redrawn per trial
		// stream), so the comparison view re-wraps here and nowhere else —
		// within an era every published clone shares the same vector.
		c.view = snap.WrapLoads(c.loads)
		c.seedRNG()
	}
}

// PlaceBatch answers every query in pairs against one pinned snapshot,
// writing decisions into out (len(out) must equal len(pairs)) and
// returning the stamp of the snapshot every decision observed. The
// batch's size is reported to the mutator afterwards, so churn and
// fault events land between batches, never inside one. Zero
// allocations at steady state.
func (c *Context) PlaceBatch(pairs []Pair, out []Decision) Stamp {
	if len(pairs) != len(out) {
		panic("serve: PlaceBatch needs len(out) == len(pairs)")
	}
	c.refresh()
	strat, loads, view, rng := c.strat, c.loads, c.view, c.rng
	for i, p := range pairs {
		a := strat.Assign(core.Request{Origin: p.User, File: p.File}, view, rng)
		loads.Add(int(a.Server))
		out[i] = Decision{Node: a.Server, Hops: a.Hops, Retried: a.Retried}
	}
	c.e.batchDone(len(pairs))
	return Stamp{Era: c.snap.Era(), Seq: c.snap.Seq()}
}

// MaxLoad returns the largest per-node load this context has assigned
// in the current era — the served analogue of Result.MaxLoad for a
// single-context replay.
func (c *Context) MaxLoad() int { return c.loads.Max() }
