package sim

import "runtime"

// Look-ahead arming. A trial's placement phase (trialState.arm) depends
// only on (World, t), never on an earlier trial's loads, so while trial
// t's requests run, a Runner whose caller walks the trials in order arms
// trial t+1 into a second trialState on a helper goroutine and swaps it
// in when RunTrial(t+1) begins. The helper touches only the state it is
// handed, every decision is the synchronous path's, and RunTrial(t)
// waits for the helper before it returns, so no work outlives the call.
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

// armJob asks a helper to arm st for trial t.
type armJob struct {
	st *trialState
	t  uint64
}

// armHelper is a Runner's look-ahead goroutine. It holds no reference to
// its Runner, so a dropped Runner is collected, and the cleanup that
// closes jobs ends the goroutine.
type armHelper struct {
	jobs chan armJob
	done chan bool // one reply per job: whether arm completed
}

// startArmHelper starts r's helper goroutine, which lives until r is
// collected.
func startArmHelper(r *Runner) *armHelper {
	h := &armHelper{jobs: make(chan armJob, 1), done: make(chan bool, 1)}
	go h.loop()
	runtime.AddCleanup(r, func(jobs chan armJob) { close(jobs) }, h.jobs)
	return h
}

// loop arms each job's state and replies on done.
func (h *armHelper) loop() {
	for j := range h.jobs {
		h.done <- armRecovered(j)
	}
}

// armRecovered arms j.st and reports whether arm returned. A panic is
// not re-raised here, where nothing could recover it: the Runner drops
// the half-armed state, and since arm is a function of (World, t), the
// synchronous arm in RunTrial(t+1) raises the same panic on the caller's
// goroutine, as without look-ahead.
func armRecovered(j armJob) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	j.st.arm(j.t)
	return true
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
// process has a second P to run the helper on. The spare and the helper
// are made on the first call that qualifies, so a fresh Runner's first
// trial allocates what it did without look-ahead. It reports whether a
// job was posted; the caller must joinAhead before it returns.
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
	if r.ahead == nil {
		r.ahead = startArmHelper(r)
	}
	r.spareArmed = false
	r.ahead.jobs <- armJob{st: r.spare, t: t + 1}
	return true
}

// joinAhead waits for the job armAhead posted. A spare whose arm
// panicked is dropped; the next call that qualifies makes a new one.
func (r *Runner) joinAhead() {
	if <-r.ahead.done {
		r.spareArmed, r.spareT = true, r.last+1
	} else {
		r.spare = nil
	}
}
