package sim

import (
	"repro/internal/ballsbins"
	"repro/internal/core"
	"repro/internal/dist"
)

// This file is the intra-trial sharded engine (Config.Workers > 0): the
// request pipeline of one trial runs on P workers instead of one, while
// everything order-sensitive — load application, accounting, churn —
// stays with the coordinator at the chunk barrier.
//
// Execution model. Each pipeline chunk is cut into fixed 64-request
// granules (shardGranule); shard s owns the contiguous granule range
// [G·s/P, G·(s+1)/P). A granule is the unit of RNG determinism: its
// origin, file and assignment streams are derived from the granule's
// global first-request index (xrand Split by label, then the trial
// stream), so the draws a request sees depend only on (cfg, trial,
// request index) — never on P or on scheduling. Workers generate and
// assign their granules concurrently, writing disjoint slices of the
// shared chunk record buffers; at the barrier the coordinator applies
// the recorded load deltas in request order (ShardDeterministic),
// accounts the chunk's records in request order through the sequential
// engine's Runner.account, routes link metrics, and runs the churn
// phase — then releases the workers into the next chunk.
//
// Barrier protocol. The coordinator runs shard 0 itself and parks the
// P−1 worker goroutines on per-worker start channels between chunks.
// Workers only store each request's (server, hops, flags) record; they
// count nothing. Publishing the chunk descriptor before the start signal
// and collecting workers through a WaitGroup before the coordinator
// accounts the records gives the two happens-before edges that make the
// shared buffers race-free: workers never read a descriptor before it
// is written, and the coordinator never reads records before their
// writers are done. Workers are spawned per trial (they exit after the
// last chunk), which keeps the steady-state allocation bill at the O(P)
// goroutine spawns — the chunk loop itself allocates nothing.
//
// Determinism. ShardDeterministic strategies read the frozen base load
// vector, which no one writes during a chunk, so assignments within a
// chunk are a pure function of the granule streams: results are
// bit-identical for every P ≥ 1 (pinned by the golden table's sharded
// pins, replayed at P ∈ {1, 2, 4, 8}, and the P-sweep property tests).
// This batched-visibility process is deliberately a *distinct seeded
// process* from the sequential engine (Workers = 0), whose loads update
// after every request as in the paper's sequential model. ShardOwn adds
// each shard's own adds since the barrier to the frozen vector, through
// a delta only that shard writes and reads, so its results depend on P
// (which granules share a shard) but never on scheduling.

// shardGranule is the fixed request-count unit of shard ownership and
// RNG stream derivation: small enough to balance shards within a
// 1024-request chunk at P = 8, large enough that per-granule reseeding
// (three PCG seeds per granule) is noise. Part of the seeded process
// frozen by the golden table's sharded pins.
const shardGranule = 64

// shardState is one worker's private scratch: its strategy instance
// (strategies carry per-instance buffers and are not concurrency-safe),
// its three granule-reseeded generators and, under ShardOwn, its load
// view.
type shardState struct {
	strat                core.Strategy
	origin, file, assign reseedRand
	own                  ownLoads
}

// ownLoads is a shard's load view under ShardOwn: the barrier loads plus
// the shard's own adds since the barrier (delta, an n-entry vector the
// shard zeroes when its granules are done), weighted by the trial's
// capacity multipliers under skew (mult, nil otherwise).
type ownLoads struct {
	base  *ballsbins.Loads
	delta []int32
	mult  []int32
}

// Load implements core.LoadReader.
func (v *ownLoads) Load(u int) int {
	l := v.base.Load(u) + int(v.delta[u])
	if v.mult != nil {
		l *= int(v.mult[u])
	}
	return l
}

// initShards lazily builds the per-shard scratch and barrier plumbing.
func (r *Runner) initShards() {
	if r.shards != nil {
		return
	}
	w := r.w
	p := w.cfg.Workers
	r.shards = make([]shardState, p)
	r.startCh = make([]chan struct{}, p)
	for s := range r.shards {
		if s > 0 {
			r.startCh[s] = make(chan struct{}, 1)
		}
		if w.cfg.Shard == ShardOwn {
			r.shards[s].own = ownLoads{base: r.loads, delta: make([]int32, w.g.N())}
		}
	}
}

// runTrialSharded executes one trial through the sharded engine. The
// prologue, chunk account, chunk end and epilogue are the sequential
// engine's; only the request phase changes discipline.
func (r *Runner) runTrialSharded(t uint64) Result {
	w := r.w
	r.initShards()
	res := r.beginTrial(t)
	// Faults compose with sharding: one shared mask, bound into every
	// shard's strategy, mutated only by the coordinator at the chunk
	// barrier (workers read it concurrently but never during a mutation —
	// the same happens-before edges that protect the chunk buffers).
	for s := range r.shards {
		st := &r.shards[s]
		st.strat = r.bind(st.strat)
		st.own.mult = r.heteroSt.mults
	}
	// Under capacity skew the strategies compare through the weighted
	// view, whose multipliers wrapView checks and the own views reuse;
	// writes, MaxLoad and the load summary stay on the raw vector.
	r.loadView = r.wrapView(r.loads)
	r.shardT = t

	chunk := len(r.servers)
	nChunks := (w.nReq + chunk - 1) / chunk
	p := len(r.shards)
	for s := 1; s < p; s++ {
		go r.shardWorker(s, nChunks)
	}

	var a acct
	for base, k := 0, 0; base < w.nReq; base, k = base+chunk, k+1 {
		c := min(chunk, w.nReq-base)
		r.shardBase, r.shardC = base, c
		r.doneWG.Add(p - 1)
		for s := 1; s < p; s++ {
			r.startCh[s] <- struct{}{}
		}
		r.runShard(0)
		r.doneWG.Wait()
		// Barrier: the workers are parked; the coordinator owns every
		// shared structure until the next start signal. It applies the
		// chunk's loads in request order, so the base vector's running
		// max tracks exactly as in the sequential engine.
		for i := 0; i < c; i++ {
			r.loads.Add(int(r.servers[i]))
		}
		r.account(c, &a)
		r.route(c)
		if base+c < w.nReq {
			r.barrier(k, c, &res)
		}
	}
	return r.finishTrial(res, a)
}

// shardWorker is the goroutine body of shard s: one barrier round per
// chunk, exiting after the trial's last chunk.
func (r *Runner) shardWorker(s, nChunks int) {
	for i := 0; i < nChunks; i++ {
		<-r.startCh[s]
		r.runShard(s)
		r.doneWG.Done()
	}
}

// runShard processes shard s's granules of the current chunk: per
// granule, reseed the three streams from the granule label (its global
// first-request index), batch-generate the ids, then assign each
// request against the shard's load view, storing its record into the
// shard's disjoint slice of the chunk buffers. Under ShardOwn the shard
// counts each assignment into its delta, and zeroes the delta over its
// own records once its granules are done.
func (r *Runner) runShard(s int) {
	w := r.w
	st := &r.shards[s]
	t, base, c := r.shardT, r.shardBase, r.shardC
	p := len(r.shards)
	g := (c + shardGranule - 1) / shardGranule
	n := w.g.N()
	view, delta := r.loadView, st.own.delta
	if delta != nil {
		view = &st.own
	}
	first, end := g*s/p*shardGranule, min(g*(s+1)/p*shardGranule, c)
	for lo := first; lo < end; lo += shardGranule {
		hi := min(lo+shardGranule, c)
		label := uint64(base + lo)
		originRNG := st.origin.stream(w.originSrc.Split(label), t)
		fileRNG := st.file.stream(w.fileSrc.Split(label), t)
		assignRNG := st.assign.stream(w.assignSrc.Split(label), t)
		dist.RequestBatch(originRNG, fileRNG, n, r.pop, r.origins[lo:hi], r.files[lo:hi])
		for i := lo; i < hi; i++ {
			req := core.Request{Origin: r.origins[i], File: r.files[i]}
			a := st.strat.Assign(req, view, assignRNG)
			if delta != nil {
				delta[a.Server]++
			}
			r.store(i, a)
		}
	}
	if delta != nil {
		for _, u := range r.servers[first:end] {
			delta[u] = 0
		}
	}
}
