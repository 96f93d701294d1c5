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
// after every request as in the paper's sequential model. ShardRacy
// swaps the frozen snapshot for one shared ballsbins.AtomicLoads: reads
// are live but unsynchronized with other workers' in-flight adds (balls
// into bins with outdated information), so assignment outcomes are
// scheduling-dependent while generation stays on the deterministic
// granule streams.

// shardGranule is the fixed request-count unit of shard ownership and
// RNG stream derivation: small enough to balance shards within a
// 1024-request chunk at P = 8, large enough that per-granule reseeding
// (three PCG seeds per granule) is noise. Part of the seeded process
// frozen by the golden table's sharded pins.
const shardGranule = 64

// shardState is one worker's private scratch: its strategy instance
// (strategies carry per-instance buffers and are not concurrency-safe),
// its three granule-reseeded generators and, in racy mode, the running
// maximum over its atomic Add returns.
type shardState struct {
	strat                core.Strategy
	origin, file, assign reseedRand
	maxSeen              int
}

// initShards lazily builds the per-shard scratch and barrier plumbing.
func (r *Runner) initShards() {
	w := r.w
	p := w.cfg.Workers
	if r.shards == nil {
		r.shards = make([]shardState, p)
		r.startCh = make([]chan struct{}, p)
		for s := 1; s < p; s++ {
			r.startCh[s] = make(chan struct{}, 1)
		}
	}
	if w.cfg.Shard == ShardRacy && r.atomicLoads == nil {
		r.atomicLoads = ballsbins.NewAtomicLoads(w.g.N())
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
		st.maxSeen = 0
	}
	// Under capacity skew the strategies compare through the weighted
	// view; writes, MaxLoad and the load summary stay on the raw vector.
	r.shardRacy = w.cfg.Shard == ShardRacy
	if r.shardRacy {
		r.atomicLoads.Reset()
		r.loadView = r.wrapView(r.atomicLoads)
	} else {
		r.loadView = r.wrapView(r.loads)
	}
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
		// shared structure until the next start signal.
		if !r.shardRacy {
			// Apply the chunk's load deltas in request order; the base
			// vector's running max tracks exactly as in the sequential
			// engine.
			for i := 0; i < c; i++ {
				r.loads.Add(int(r.servers[i]))
			}
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
// request against the trial's load view, storing its record into the
// shard's disjoint slice of the chunk buffers.
func (r *Runner) runShard(s int) {
	w := r.w
	st := &r.shards[s]
	t, base, c := r.shardT, r.shardBase, r.shardC
	p := len(r.shards)
	g := (c + shardGranule - 1) / shardGranule
	n := w.g.N()
	racy := r.shardRacy
	for gi := g * s / p; gi < g*(s+1)/p; gi++ {
		lo := gi * shardGranule
		hi := min(lo+shardGranule, c)
		label := uint64(base + lo)
		originRNG := st.origin.stream(w.originSrc.Split(label), t)
		fileRNG := st.file.stream(w.fileSrc.Split(label), t)
		assignRNG := st.assign.stream(w.assignSrc.Split(label), t)
		dist.RequestBatch(originRNG, fileRNG, n, r.pop, r.origins[lo:hi], r.files[lo:hi])
		for i := lo; i < hi; i++ {
			req := core.Request{Origin: r.origins[i], File: r.files[i]}
			a := st.strat.Assign(req, r.loadView, assignRNG)
			if racy {
				if v := r.atomicLoads.Add(int(a.Server)); v > st.maxSeen {
					st.maxSeen = v
				}
			}
			r.store(i, a)
		}
	}
}
