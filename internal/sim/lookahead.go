package sim

import (
	"runtime"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/core"
)

// Look-ahead arming. Everything a trial does before its first request —
// the placement and the conditioned file sampler (trialState.arm), the
// request ids (draw) — depends only on (World, t), never on an earlier
// trial's loads. So does the candidate walk of each request before the
// trial's first barrier: Strategy II's candidate set S_j ∩ B_r(u)
// depends on the placement alone, and only the comparison of the d
// samples reads loads (core.TwoChoice.Plan). And so do the barriers
// themselves: the arrival, fault and churn events of barrier k+1 are
// drawn from the trial's own streams against the placement and mask
// barrier k left, and read a load only for Result.DeadLoad. So while
// trial t's requests run, a Runner whose caller walks the trials in
// order has a helper goroutine arm trial t+1 into a second trialState,
// draw its request ids in one batch, walk its first requests' tile runs
// in request order into the state's plan arena, and then apply the
// trial's barriers in order: before barrier k+1 it copies the placement
// and liveness mask that chunk k runs on into chunk view k, and it logs
// the nodes the barrier crashes. It keeps going until RunTrial(t) is
// about to return: joinAhead raises a stop flag and waits, so no work
// outlives the call, and the work splits between the two cores by their
// speed, with no constant to tune.
//
// RunTrial(t+1) swaps the state in and starts from the Result it
// carries: the armed placement's uncached count and the event counters
// of every barrier applied ahead. It binds its strategy to view k for
// each chunk k whose closing barrier was applied ahead, and at that
// barrier only adds the loads of the nodes it crashed to DeadLoad — no
// request runs between the crashes of one barrier, so the sum is the
// synchronous path's. From the first barrier not applied ahead on, it
// binds the state's own placement and advances it itself. It finishes
// the planned prefix of its first chunk from the stored walks and walks
// the rest itself. The helper touches only the state it is handed, and
// every decision and draw is the synchronous path's.
//
// Plans cover only the requests before the trial's first barrier — the
// whole of a quiesced trial, the first chunk of a mutating one — made
// against the armed placement, which is view 0. The arenas are sized
// once, when a state is first armed ahead, and planning stops, rather
// than fails, when the plan arena is full. The views are sized on the
// state's first job, to the armed placement's used arenas, as many as
// lookaheadViewBytes holds; barriers past the last view run on the
// caller.
//
// Pooled Runners never arm ahead. Run and RunSeries compile a world per
// point and run each block of a few trials on one pooled Runner, which
// would make a spare state per world and arm one trial past each block;
// letting them arm ahead while a core was idle made `cmd/figures -id all
// -preset quick` 9 % slower (docs/perf.md §Look-ahead trial arming).

// lookaheadMinSlots is the smallest world, in nominal placement slots
// n·M, that arms ahead. Posting a job wakes the idle core, which cost
// the posting goroutine ~8 µs on the 2-vCPU VM it was measured on, and
// the helper started ~60 µs after it: a 144-node, M = 2 world arms in
// ~10–14 µs and runs only ~60 µs of requests, so it gained nothing;
// from 1024 slots on, arming ahead was faster in-process.
const lookaheadMinSlots = 1024

// lookaheadMaxRequests bounds the requests a state draws and plans
// ahead: a trial's first 2^16, rounded down to whole chunks (512 KiB of
// ids), whatever its length.
const lookaheadMaxRequests = 1 << 16

// lookaheadViewBytes bounds the memory a state's chunk views may hold:
// at the armed placement's copy size plus CopyInto's quarter of
// headroom, perfbench's dynamic world (~0.7 MB a view) gets a view for
// each of its 4 barriers, while one view of a Side-1000 world (~150 MB)
// does not fit, so such a world arms ahead with no views.
const lookaheadViewBytes = 8 << 20

// planRunsPerRequest sizes the plan arena: room for this many tile runs
// per request it can plan.
const planRunsPerRequest = 4

// armJob asks a helper to arm st for trial t, plan its first walks and
// apply its barriers ahead.
type armJob struct {
	st *trialState
	t  uint64
}

// armHelper is a Runner's look-ahead goroutine. It holds no reference to
// its Runner, so a dropped Runner is collected, and the cleanup that
// closes jobs ends the goroutine.
type armHelper struct {
	jobs chan armJob
	done chan bool   // one reply per job: whether it completed
	stop atomic.Bool // raised by joinAhead: stop planning and barriers
}

// startArmHelper starts r's helper goroutine, which lives until r is
// collected.
func startArmHelper(r *Runner) *armHelper {
	h := &armHelper{jobs: make(chan armJob, 1), done: make(chan bool, 1)}
	go h.loop()
	runtime.AddCleanup(r, func(jobs chan armJob) { close(jobs) }, h.jobs)
	return h
}

// loop runs each job and replies on done.
func (h *armHelper) loop() {
	for j := range h.jobs {
		h.done <- h.run(j)
	}
}

// run arms j.st for trial j.t, sizes its chunk views on its first job,
// draws its request ids, then plans and applies barriers ahead until
// stopped, and reports whether it returned. A panic is not re-raised
// here, where nothing could recover it: the Runner drops the half-armed
// state, and since the job is a function of (World, t), the synchronous
// path of RunTrial(t+1) raises the same panic on the caller's goroutine,
// as without look-ahead.
func (h *armHelper) run(j armJob) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	j.st.arm(j.t)
	if j.st.views == nil {
		j.st.sizeViews()
	}
	j.st.draw(j.t, len(j.st.reqOrigins))
	j.st.plan(&h.stop)
	for !h.stop.Load() && j.st.applyAhead() {
	}
	return true
}

// readyAhead sizes st's look-ahead arenas the first time it is armed
// ahead: the id arena, to the trial's first lookaheadMaxRequests
// (rounded down to whole chunks), which the helper draws ahead whole,
// and, on a tile-indexed world, the plan arena for those before the
// first barrier. The state's first plan builds its planner.
func (st *trialState) readyAhead() {
	w := st.w
	n := w.nReq
	if n > lookaheadMaxRequests {
		chunk := min(w.chunk, w.nReq)
		n = max(1, lookaheadMaxRequests/chunk) * chunk
	}
	if len(st.reqOrigins) < n {
		st.reqOrigins, st.reqFiles = make([]int32, n), make([]int32, n)
	}
	if st.plans == nil && w.tiling != nil {
		m := min(n, w.firstBarrier())
		st.plans = core.NewPlans(m, m*planRunsPerRequest)
	}
}

// firstBarrier returns how many requests a trial runs before its first
// barrier mutation: all of them on a world with no churn, faults or
// arrivals, one chunk otherwise.
func (w *World) firstBarrier() int {
	if !w.cfg.MutatesMidTrial() {
		return w.nReq
	}
	return min(w.chunk, w.nReq)
}

// plan walks, in request order, the candidate tile runs of the armed
// trial's requests drawn ahead and before its first barrier into the
// plan arena, until stop is raised or the arena is full. The planner is
// bound as the trial's own strategy will be (trialState.bind).
func (st *trialState) plan(stop *atomic.Bool) {
	if st.plans == nil {
		return
	}
	// A nil interface, not a nil *TwoChoice inside one, so that bind
	// builds the state's first planner instead of rebinding nil.
	var cur core.Strategy
	if st.planner != nil {
		cur = st.planner
	}
	st.planner = st.bind(cur).(*core.TwoChoice)
	n := min(st.drawn, st.w.firstBarrier())
	for i := 0; i < n && !stop.Load(); i++ {
		if !st.planner.Plan(core.Request{Origin: st.reqOrigins[i], File: st.reqFiles[i]}, st.plans) {
			return
		}
	}
}

// chunkView is the placement and liveness mask one chunk of a trial
// runs on, copied before the barrier that closes the chunk was applied
// ahead, and where that barrier's crashes end in trialState.crashed.
type chunkView struct {
	p        cache.Placement
	live     cache.Liveness // unused without a fault process
	crashEnd int
}

// barriers returns how many barriers a trial closes: one after every
// chunk but the last on a world that mutates mid-trial, none otherwise.
func (w *World) barriers() int {
	if !w.cfg.MutatesMidTrial() {
		return 0
	}
	chunk := min(w.chunk, w.nReq)
	return (w.nReq+chunk-1)/chunk - 1
}

// sizeViews makes the armed state's chunk views on its first job ahead:
// one per barrier of the trial, as many as lookaheadViewBytes holds at
// the armed placement's and mask's copy size plus a quarter, none when
// one does not fit. It makes every view's arenas by copying the armed
// placement and mask into it, with CopyInto's quarter of headroom, so
// the copies ahead reuse them from the first job on.
func (st *trialState) sizeViews() {
	size := st.p.CopyBytes()
	if st.live != nil {
		size += st.live.CopyBytes()
	}
	st.views = make([]chunkView, min(st.w.barriers(), lookaheadViewBytes/(size+size/4)))
	for k := range st.views {
		st.p.CopyInto(&st.views[k].p)
		if st.live != nil {
			st.live.CopyInto(&st.views[k].live)
		}
	}
	if len(st.views) > 0 {
		st.crashed = make([]int32, 0, st.w.g.N())
	}
}

// applyAhead applies the armed trial's next barrier — the one closing
// chunk k = barriersAhead — after copying the placement and liveness
// mask chunk k runs on into view k, counting its events into the state's
// Result and logging its crashes. It reports false, applying nothing,
// when no view is left.
func (st *trialState) applyAhead() bool {
	k := st.barriersAhead
	if k == len(st.views) {
		return false
	}
	v := &st.views[k]
	st.p.CopyInto(&v.p)
	if st.live != nil {
		st.live.CopyInto(&v.live)
	}
	st.advance(min(st.w.chunk, st.w.nReq), st.logCrashed, &st.res)
	v.crashEnd = len(st.crashed)
	st.barriersAhead++
	return true
}

// logCrashed is the loadOf of a barrier applied ahead: it logs the node
// crashing and adds no load, which the trial adds at that barrier (see
// Runner.barrier).
func (st *trialState) logCrashed(u int32) int {
	st.crashed = append(st.crashed, u)
	return 0
}

// bindChunk returns cur bound as chunk k of the armed trial runs: to view
// k when the barrier closing it was applied ahead, to the state's own
// placement and mask otherwise.
func (st *trialState) bindChunk(cur core.Strategy, k int) core.Strategy {
	if k >= st.barriersAhead {
		return st.bind(cur)
	}
	v := &st.views[k]
	var live *cache.Liveness
	if st.live != nil {
		live = &v.live
	}
	return st.bindTo(cur, &v.p, live)
}

// takeArmed swaps in the state armed ahead for trial t, reporting
// whether there was one.
func (r *Runner) takeArmed(t uint64) bool {
	if r.spare == nil || !r.spareArmed || r.spareT != t {
		return false
	}
	r.trialState, r.spare = r.spare, r.trialState
	r.spareArmed = false
	return true
}

// armAhead starts arming trial t+1 into the spare state when the caller
// runs trials in order — the previous call on r ran t−1 — on a
// caller-held Runner over a world of at least lookaheadMinSlots, and the
// process has a second P to run the helper on. The spare, each state's
// look-ahead arenas and the helper are made on the first call that
// needs them, so a fresh Runner's first trial allocates what it did
// without look-ahead. It reports whether a job was posted; the caller
// must joinAhead before it returns.
func (r *Runner) armAhead(t uint64) bool {
	sequential := r.ran && r.last+1 == t
	r.last, r.ran = t, true
	if r.pooled || !sequential || r.w.g.N()*r.w.cfg.M < lookaheadMinSlots ||
		runtime.GOMAXPROCS(0) < 2 {
		return false
	}
	if r.spare == nil {
		st := r.w.newTrialState()
		r.spare = &st
	}
	r.spare.readyAhead()
	if r.ahead == nil {
		r.ahead = startArmHelper(r)
	}
	r.spareArmed = false
	r.ahead.stop.Store(false)
	r.ahead.jobs <- armJob{st: r.spare, t: t + 1}
	return true
}

// joinAhead stops the helper's planning and barriers and waits for the
// job armAhead posted, which finishes a barrier it has begun. A spare
// whose job panicked is dropped; the next call that qualifies makes a
// new one.
func (r *Runner) joinAhead() {
	r.ahead.stop.Store(true)
	if <-r.ahead.done {
		r.spareArmed, r.spareT = true, r.last+1
	} else {
		r.spare = nil
	}
}
