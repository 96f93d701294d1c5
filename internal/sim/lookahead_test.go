package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// lookaheadConfigs are the worlds the look-ahead tests drive, each at
// least lookaheadMinSlots: perfbench's static and dynamic workloads, a
// MissResample world with uncached files (the conditioned sampler is
// rebuilt on whichever state is swapped in), two-tier capacities (the
// weighted view rebinds to the swapped-in multipliers) and drift churn
// with crash faults (the drift sampler, the churn and fault streams and
// the liveness mask all live in the state).
func lookaheadConfigs() map[string]Config {
	return map[string]Config{
		"static": {
			Side: 100, K: 10_000, M: 10,
			Popularity: PopSpec{Kind: PopZipf, Gamma: 1.2},
			Strategy:   StrategySpec{Kind: TwoChoices, Radius: 8},
			Streams:    StreamsSplit,
			Index:      IndexTiles,
			Seed:       1,
		},
		"dynamic": dynamicCfg(),
		"miss-resample": {
			Side: 16, K: 4000, M: 4, Requests: 2048, Seed: 7,
			Popularity: PopSpec{Kind: PopZipf, Gamma: 0.8},
			Strategy:   StrategySpec{Kind: TwoChoices, Radius: 3},
			MissPolicy: MissResample,
		},
		"hetero-two-tier": {
			Side: 16, K: 300, M: 4, Requests: 4096, Seed: 0x63,
			Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9},
			Strategy:   StrategySpec{Kind: TwoChoices, Radius: 4},
			Hetero:     HeteroCapacity,
			Profile:    ProfileTwoTier,
		},
		"drift-crash": {
			Side: 16, K: 300, M: 4, Requests: 4096, Seed: 0x5EED,
			Popularity:  PopSpec{Kind: PopZipf, Gamma: 0.9},
			Strategy:    StrategySpec{Kind: TwoChoices, Radius: 4},
			MissPolicy:  MissEscalate,
			Churn:       ChurnDrift,
			ChurnRate:   0.5,
			Faults:      FaultsCrash,
			FaultRate:   0.01,
			RecoverRate: 0.005,
		},
	}
}

// lookaheadOrders are the call orders one Runner is driven through: in
// order (every call after the first arms ahead), repeated (t, t), a skip
// (t, t+2), a step backward and a restart from 0.
var lookaheadOrders = map[string][]uint64{
	"sequential": {0, 1, 2, 3, 4, 5},
	"repeated":   {0, 1, 1, 2, 2, 3},
	"skipping":   {0, 1, 3, 4, 6, 7},
	"backward":   {0, 1, 2, 3, 2, 1, 2, 3},
	"restart":    {0, 1, 2, 3, 0, 1, 2, 3},
}

// withTwoProcs makes sure the look-ahead can run: a Runner arms ahead
// only when GOMAXPROCS exceeds 1.
func withTwoProcs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestRunnerLookaheadMatchesFresh: whatever order a caller runs trials
// in, a Runner that arms ahead returns, call by call, the Result of a
// fresh Runner running that one trial. Every other call that swaps in a
// state armed ahead first replaces its plan with one for a prefix of
// its requests — half of what the helper planned, or half a chunk when
// the helper was stopped before its first walk — as a stop there would
// have left it, so on every world some call finishes a planned prefix
// and walks the rest. On the static and dynamic worlds some call must
// also finish requests from walks its helper planned. Under the race
// detector, whose instrumentation slows the helper's placement build
// more than the caller's trial, the helper may reach no walk before the
// join, so there that count is only logged.
func TestRunnerLookaheadMatchesFresh(t *testing.T) {
	withTwoProcs(t)
	armedAhead := 0
	for name, cfg := range lookaheadConfigs() {
		w, err := Compile(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fresh := map[uint64]Result{}
		for trial := uint64(0); trial < 8; trial++ {
			fresh[trial] = w.NewRunner().RunTrial(trial)
		}
		if name == "miss-resample" && fresh[0].Uncached == 0 {
			t.Fatalf("%s: no uncached files; the conditioned sampler is not exercised", name)
		}
		swapped, helper, cut := 0, 0, 0
		for order, trials := range lookaheadOrders {
			r := w.NewRunner()
			for i, trial := range trials {
				if r.spareArmed && r.spareT == trial {
					n := r.spare.plans.Len()
					if n > 0 {
						helper++
					}
					if swapped++; swapped%2 == 0 {
						replanPrefix(r.spare, max(n, min(w.chunk, w.nReq))/2)
						cut++
					}
				}
				if got := r.RunTrial(trial); got != fresh[trial] {
					t.Errorf("%s/%s call %d (trial %d):\n got %+v\nwant %+v", name, order, i, trial, got, fresh[trial])
				}
				if r.spareArmed && r.spareT == trial+1 {
					armedAhead++
				}
			}
			if order == "sequential" && r.spare == nil {
				t.Errorf("%s: a Runner called in order never made its spare state", name)
			}
		}
		if cut == 0 {
			t.Errorf("%s: no call finished a plan cut short", name)
		}
		if !raceEnabled && (name == "static" || name == "dynamic") && helper == 0 {
			t.Errorf("%s: no call finished a request its helper planned", name)
		}
		t.Logf("%s: %d calls swapped in a state armed ahead, %d with walks the helper planned, %d with a plan cut short",
			name, swapped, helper, cut)
	}
	if armedAhead == 0 {
		t.Error("no call armed its successor ahead; the swap path never ran")
	}
	t.Logf("%d calls armed their successor ahead", armedAhead)
}

// replanPrefix leaves st planned for its first n requests, as a helper
// stopped after n walks would have. The walks are made against the
// placement the first chunk runs on: view 0 once the helper has applied
// a barrier ahead.
func replanPrefix(st *trialState, n int) {
	st.planner = st.bindChunk(st.planner, 0).(*core.TwoChoice)
	st.plans.Reset()
	for i := 0; i < n; i++ {
		if !st.planner.Plan(core.Request{Origin: st.reqOrigins[i], File: st.reqFiles[i]}, st.plans) {
			panic("a plan arena that held more walks is full")
		}
	}
}

// TestRunnerLookaheadBarriersHandOff: a spare armed ahead whose helper
// stopped after j barriers, for every j from none to all of the trial's,
// gives the fresh Runner's Result field for field once swapped in —
// DeadLoad summed from the crashes logged ahead, Uncached read at arm,
// Vacant, every event counter and, on the links row, the link metrics
// of every chunk run on a view. The spare is armed by hand, as the
// helper's job does, so each j is reached exactly. The churn-arrivals
// row has no fault process, so its views hold no liveness mask.
func TestRunnerLookaheadBarriersHandOff(t *testing.T) {
	links := dynamicCfg()
	links.Metrics = MetricsLinks
	rows := map[string]Config{
		"dynamic":       dynamicCfg(),
		"drift-crash":   lookaheadConfigs()["drift-crash"],
		"dynamic/links": links,
		"churn-arrivals": {
			Side: 16, K: 300, M: 4, Requests: 4096, Seed: 0xA11,
			Popularity:  PopSpec{Kind: PopZipf, Gamma: 0.9},
			Strategy:    StrategySpec{Kind: TwoChoices, Radius: 4},
			MissPolicy:  MissEscalate,
			Churn:       ChurnReplicas,
			ChurnRate:   0.5,
			Hetero:      HeteroArrival,
			Profile:     ProfilePowerLaw,
			ArrivalRate: 0.01,
		},
	}
	for name, cfg := range rows {
		w, err := Compile(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.barriers() < 3 {
			t.Fatalf("%s: %d barriers a trial; the hand-off is barely exercised", name, w.barriers())
		}
		var events, deadLoad int
		for trial := uint64(1); trial <= 2; trial++ {
			want := w.NewRunner().RunTrial(trial)
			events += want.ArrivalEvents + want.FaultEvents + want.ChurnEvents
			deadLoad += want.DeadLoad
			for j := 0; j <= w.barriers(); j++ {
				r := w.NewRunner()
				st := w.newTrialState()
				st.readyAhead()
				st.arm(trial)
				st.sizeViews()
				st.draw(trial, len(st.reqOrigins))
				st.plan(new(atomic.Bool))
				for range j {
					if !st.applyAhead() {
						t.Fatalf("%s: the views ran out at barrier %d of %d", name, st.barriersAhead, w.barriers())
					}
				}
				r.spare, r.spareArmed, r.spareT = &st, true, trial
				if got := r.RunTrial(trial); got != want {
					t.Errorf("%s trial %d, %d barriers ahead:\n got %+v\nwant %+v", name, trial, j, got, want)
				}
				if r.trialState != &st {
					t.Fatalf("%s: RunTrial did not swap in the state armed ahead", name)
				}
			}
		}
		if events == 0 || (cfg.Faults != FaultsNone && deadLoad == 0) {
			t.Errorf("%s: %d events and %d dead load over the trials; the counters are not exercised", name, events, deadLoad)
		}
	}
}

// TestRunnerLookaheadGates: pooled Runners, sharded worlds, worlds
// below lookaheadMinSlots and a single-P process arm every trial
// synchronously, with no spare state, no helper and no plans; a world
// over the view budget arms ahead with no chunk views.
func TestRunnerLookaheadGates(t *testing.T) {
	withTwoProcs(t)
	big, err := Compile(lookaheadConfigs()["hetero-two-tier"])
	if err != nil {
		t.Fatal(err)
	}
	small := lookaheadConfigs()["hetero-two-tier"]
	small.Side, small.M = 12, 2
	tiny, err := Compile(small)
	if err != nil {
		t.Fatal(err)
	}
	sharded := lookaheadConfigs()["static"]
	sharded.Workers = 2
	shw, err := Compile(sharded)
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, r *Runner) {
		for trial := uint64(0); trial < 4; trial++ {
			r.RunTrial(trial)
		}
		if r.spare != nil || r.ahead != nil || r.plans != nil {
			t.Errorf("%s: a Runner called in order armed ahead", name)
		}
	}
	run("pooled", big.pooledRunner())
	run("sharded", shw.NewRunner())
	run("below lookaheadMinSlots", tiny.NewRunner())

	// A world one of whose views would outgrow lookaheadViewBytes arms
	// ahead and plans, but applies no barrier ahead: both of its states
	// size their views to none.
	wide, err := Compile(Config{
		Side: 64, K: 10_000, M: 128, Requests: 4096, Seed: 3,
		Strategy: StrategySpec{Kind: TwoChoices, Radius: 4},
		Churn:    ChurnReplicas, ChurnRate: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := wide.NewRunner()
	for trial := uint64(0); trial < 4; trial++ {
		r.RunTrial(trial)
	}
	if r.spare == nil || !r.spareArmed || r.ahead == nil {
		t.Error("over the view budget: a Runner called in order did not arm ahead")
	} else if size := r.p.CopyBytes(); size <= lookaheadViewBytes || r.views == nil || len(r.views) != 0 ||
		r.spare.views == nil || len(r.spare.views) != 0 {
		t.Errorf("over the view budget: views of a %d-byte placement sized to %d and %d, want none (nil: not sized)",
			size, len(r.views), len(r.spare.views))
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run("GOMAXPROCS 1", big.NewRunner())
}

// TestRunnerLookaheadSteadyStateAllocs holds the look-ahead path to the
// Runner's allocation-free bar. testing.AllocsPerRun measures at
// GOMAXPROCS 1, where no Runner arms ahead, so this test counts the
// process's mallocs itself at GOMAXPROCS >= 2 over windows of in-order
// calls after warm-up. In a passing window every call swaps in the
// state the call before it armed ahead, and the swap, the job post, the
// helper's arm and the join allocate nothing. A window may read a malloc
// or two that are not per call: a goroutine that blocks on a channel
// takes a sudog from its P's cache, and the runtime allocates one when
// that cache and the central one are empty (every GC empties the central
// one), so the test passes on the first clean window of a few.
func TestRunnerLookaheadSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	withTwoProcs(t)
	const warm, calls, windows = 6, 8, 5
	for name, cfg := range lookaheadConfigs() {
		w, err := Compile(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := w.NewRunner()
		for trial := uint64(0); trial < warm; trial++ {
			r.RunTrial(trial)
		}
		trial, clean := uint64(warm), false
		for win := 0; win < windows && !clean; win++ {
			var before, after runtime.MemStats
			swapped := 0
			runtime.ReadMemStats(&before)
			for end := trial + calls; trial < end; trial++ {
				if r.spareArmed && r.spareT == trial {
					swapped++
				}
				r.RunTrial(trial)
			}
			runtime.ReadMemStats(&after)
			n := after.Mallocs - before.Mallocs
			clean = n == 0 && swapped == calls
			if !clean {
				t.Logf("%s, window %d: %d mallocs; %d of %d calls swapped in a state armed ahead",
					name, win, n, swapped, calls)
			}
		}
		if !clean {
			t.Errorf("%s: no window of %d in-order calls ran allocation-free on states armed ahead", name, calls)
		}
	}
}

// TestRunnerLookaheadHelperExits: a Runner that armed ahead owns a
// helper goroutine, and dropping the Runner ends it once the collector
// has run.
func TestRunnerLookaheadHelperExits(t *testing.T) {
	withTwoProcs(t)
	w, err := Compile(lookaheadConfigs()["hetero-two-tier"])
	if err != nil {
		t.Fatal(err)
	}
	base := settledGoroutines()
	runners := make([]*Runner, 4)
	for i := range runners {
		runners[i] = w.NewRunner()
		for trial := uint64(0); trial < 3; trial++ {
			runners[i].RunTrial(trial)
		}
		if runners[i].ahead == nil {
			t.Fatal("a Runner called in order started no helper")
		}
	}
	if n := runtime.NumGoroutine(); n < base+len(runners) {
		t.Fatalf("%d goroutines with %d live helpers, baseline %d", n, len(runners), base)
	}
	runtime.KeepAlive(runners)
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after dropping the Runners, baseline %d", runtime.NumGoroutine(), base)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// settledGoroutines collects until two readings of the goroutine count
// agree, so helpers of Runners dropped by earlier tests have exited,
// and returns the count.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for range 100 {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}
