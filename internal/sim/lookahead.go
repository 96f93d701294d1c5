package sim

import (
	"runtime"
	"sync/atomic"

	"repro/internal/core"
)

// Look-ahead arming. Everything a trial does before its first request —
// the placement and the conditioned file sampler (trialState.arm), the
// request ids (draw) — depends only on (World, t), never on an earlier
// trial's loads. So does the candidate walk of each request before the
// trial's first barrier: Strategy II's candidate set S_j ∩ B_r(u)
// depends on the placement alone, and only the comparison of the d
// samples reads loads (core.TwoChoice.Plan). So while trial t's requests
// run, a Runner whose caller walks the trials in order has a helper
// goroutine arm trial t+1 into a second trialState, draw its request
// ids in one batch, and then walk its requests' tile runs in request
// order into the state's plan arena. It keeps walking until RunTrial(t)
// is about to return: joinAhead raises a stop flag and waits, so no
// work outlives the call, and the walks split between the two cores by
// their speed, with no constant to tune. RunTrial(t+1) swaps the state
// in, finishes the planned prefix from the stored walks and walks the
// rest itself. The helper touches only the state it is handed, and
// every decision and draw is the synchronous path's.
//
// Plans cover only the requests before the trial's first barrier — the
// whole of a quiesced trial, the first chunk of a mutating one — since
// churn, faults and arrivals change what a walk finds. The arenas are
// sized once, when a state is first armed ahead, and planning stops,
// rather than fails, when the plan arena is full.
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

// planRunsPerRequest sizes the plan arena: room for this many tile runs
// per request it can plan.
const planRunsPerRequest = 4

// armJob asks a helper to arm st for trial t and plan ahead.
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
	stop atomic.Bool // raised by joinAhead: stop planning
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

// run arms j.st for trial j.t, draws its request ids and plans until
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
	j.st.draw(j.t, len(j.st.reqOrigins))
	j.st.plan(&h.stop)
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

// joinAhead stops the helper's planning and waits for the job armAhead
// posted. A spare whose job panicked is dropped; the next call that
// qualifies makes a new one.
func (r *Runner) joinAhead() {
	r.ahead.stop.Store(true)
	if <-r.ahead.done {
		r.spareArmed, r.spareT = true, r.last+1
	} else {
		r.spare = nil
	}
}
