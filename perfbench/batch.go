package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/ballsbins"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// lawTrials is how many trials the run-wide laws replay.
const lawTrials = 8

// traceChunk is the request block the traced decomposition feeds through
// each layer per span: the engine's own pipeline chunk, so the barrier
// cadence matches a batch trial's.
const traceChunk = 1024

// staticConfig is the quiesced batch world: the request path alone.
func staticConfig(seed uint64) sim.Config {
	return sim.Config{
		Side: 100, K: 10_000, M: 10,
		Popularity: sim.PopSpec{Kind: sim.PopZipf, Gamma: 1.2},
		Strategy:   sim.StrategySpec{Kind: sim.TwoChoices, Radius: 8},
		Streams:    sim.StreamsSplit,
		Index:      sim.IndexTiles,
		Seed:       seed,
	}
}

// dynamicConfig is the mutating batch world: the paper-scale trial of
// internal/sim's benchmarks (70×70 torus, K = 10⁴ Zipf(1.2), M = 10,
// two-choices r = 8, one request per node) with the mutation rates of
// three of them composed, all applied at the chunk barriers of every
// trial: replica churn at 0.5 per request (BenchmarkWorldRunTrialChurn),
// crash faults at 0.01 per request recovering at 0.005
// (BenchmarkWideWorldTrialFaults, which likewise issues one request per
// node) and power-law node arrivals at 0.01 per request under
// MissEscalate (BenchmarkWorldRunTrialHeteroArrival).
func dynamicConfig(seed uint64) sim.Config {
	return sim.Config{
		Side: 70, K: 10_000, M: 10,
		Popularity:  sim.PopSpec{Kind: sim.PopZipf, Gamma: 1.2},
		Strategy:    sim.StrategySpec{Kind: sim.TwoChoices, Radius: 8},
		MissPolicy:  sim.MissEscalate,
		Streams:     sim.StreamsSplit,
		Index:       sim.IndexTiles,
		Churn:       sim.ChurnReplicas,
		ChurnRate:   0.5,
		Faults:      sim.FaultsCrash,
		FaultRate:   0.01,
		RecoverRate: 0.005,
		Hetero:      sim.HeteroArrival,
		Profile:     sim.ProfilePowerLaw,
		ArrivalRate: 0.01,
		Seed:        seed,
	}
}

// quiesced reports whether cfg's placement never changes within a trial
// and every node is alike: the trials sim.Runner places in the immutable
// layout, with no liveness mask and no weighted loads.
func quiesced(cfg sim.Config) bool {
	return cfg.Churn == sim.ChurnNone && cfg.Faults == sim.FaultsNone && cfg.Hetero == sim.HeteroNone
}

// runBatch measures whole trials (untraced) or their layers (traced).
func runBatch(cfg sim.Config, opt options, tr *tracer) (outcome, error) {
	if tr != nil {
		w, err := sim.Compile(cfg)
		if err != nil {
			return outcome{}, err
		}
		return traceBatch(w, opt, tr), nil
	}

	// Set-up is what a user pays before the first result: compile the
	// world and run one trial on a cold runner, which sizes its arenas.
	var w *sim.World
	var r *sim.Runner
	setup := make([]float64, 0, setupReps)
	for range setupReps {
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = sim.Compile(cfg); err != nil {
			return outcome{}, err
		}
		r = w.NewRunner()
		r.RunTrial(0)
		setup = append(setup, time.Since(t0).Seconds())
	}

	var o outcome
	var sc scaler
	var lat []float64 // normalized ms per trial
	var first []sim.Result
	for t := uint64(1); opt.more(len(lat)); t++ {
		sc.ready()
		t0 := time.Now()
		res := r.RunTrial(t)
		lat = append(lat, sc.norm(time.Since(t0)))
		if err := checkTrial(w, t, res); err != nil {
			o.fail(true, err)
		}
		if len(first) < lawTrials {
			first = append(first, res)
		}
	}
	o.attempted = len(lat)
	o.values = map[string]float64{
		"latency_ms": median(lat),
		"setup_s":    sc.factor() * median(setup),
	}
	if err := replayLaw(cfg, first); err != nil {
		o.fail(false, err)
	}
	if err := strategyLaw(cfg, first); err != nil {
		o.fail(false, err)
	}
	return o, nil
}

// checkTrial checks one trial's result against the laws any trial obeys.
func checkTrial(w *sim.World, t uint64, res sim.Result) error {
	cfg := w.Config()
	n, req := w.N(), w.Requests()
	switch {
	case res.Requests != req:
		return fmt.Errorf("trial %d: %d requests reported, %d issued", t, res.Requests, req)
	case res.Backhaul < 0 || res.Backhaul > req || res.Escalated < 0 || res.Escalated > req:
		return fmt.Errorf("trial %d: backhaul %d / escalated %d outside [0, %d]", t, res.Backhaul, res.Escalated, req)
	}
	// Pigeonhole: some node serves at least the average in-network load.
	served := req - res.Backhaul
	if res.MaxLoad < (served+n-1)/n || res.MaxLoad > req {
		return fmt.Errorf("trial %d: max load %d outside [⌈%d/%d⌉, %d]", t, res.MaxLoad, served, n, req)
	}
	// A request travels at most r hops unless it escalated to r = ∞,
	// and never more than the torus diameter.
	limit := float64(cfg.Strategy.Radius*(req-res.Escalated) + w.Grid().Diameter()*res.Escalated)
	if res.MeanCost < 0 || res.MeanCost*float64(req) > limit+1e-6 {
		return fmt.Errorf("trial %d: mean cost %v exceeds the radius law (%d escalated)", t, res.MeanCost, res.Escalated)
	}
	if cfg.Faults != sim.FaultsNone {
		if avail := float64(served) / float64(req); !res.Faulted || math.Abs(res.Availability-avail) > 1e-12 {
			return fmt.Errorf("trial %d: availability %v, want (requests−backhaul)/requests = %v", t, res.Availability, avail)
		}
		if res.FaultEvents == 0 || res.DeadNodes > n {
			return fmt.Errorf("trial %d: %d fault events, %d dead nodes", t, res.FaultEvents, res.DeadNodes)
		}
	}
	if cfg.Churn != sim.ChurnNone && res.ChurnEvents == 0 {
		return fmt.Errorf("trial %d: churn schedule applied no migration", t)
	}
	if cfg.Hetero == sim.HeteroArrival && res.ArrivalEvents == 0 {
		return fmt.Errorf("trial %d: arrival schedule admitted no node", t)
	}
	return nil
}

// replayLaw: a trial is a function of (config, trial index), so a fresh
// world and runner reproduce the measured results exactly.
func replayLaw(cfg sim.Config, first []sim.Result) error {
	w, err := sim.Compile(cfg)
	if err != nil {
		return err
	}
	r := w.NewRunner()
	for i, want := range first {
		if got := r.RunTrial(uint64(i + 1)); got != want {
			return fmt.Errorf("trial %d does not replay: %+v, then %+v", i+1, want, got)
		}
	}
	return nil
}

// strategyLaw: on the same trials, Strategy II (two choices within r)
// has a lower mean max load than Strategy I (nearest replica), which in
// turn has the lower communication cost (Theorems 1–4).
func strategyLaw(cfg sim.Config, two []sim.Result) error {
	near := cfg
	near.Strategy = sim.StrategySpec{Kind: sim.Nearest}
	w, err := sim.Compile(near)
	if err != nil {
		return err
	}
	r := w.NewRunner()
	var loadTwo, loadNear, costTwo, costNear float64
	for i, res := range two {
		nr := r.RunTrial(uint64(i + 1))
		loadTwo += float64(res.MaxLoad)
		loadNear += float64(nr.MaxLoad)
		costTwo += res.MeanCost
		costNear += nr.MeanCost
	}
	if loadTwo >= loadNear {
		return fmt.Errorf("two choices max load %.2f not below nearest replica %.2f over %d trials", loadTwo/float64(len(two)), loadNear/float64(len(two)), len(two))
	}
	if costNear > costTwo {
		return fmt.Errorf("nearest replica cost %.3f above two choices %.3f over %d trials", costNear/float64(len(two)), costTwo/float64(len(two)), len(two))
	}
	return nil
}

// trialPlacer builds each trial's placement as sim.Runner does for a
// quiesced world: one reused cache.Placer in the immutable layout (tile
// index on, churn slabs off) fed by the trial's namespace-1 placement
// stream, one strategy rebound to each placement rather than rebuilt,
// and, under MissResample, the file stream reconditioned on the cached
// set into reused arenas.
type trialPlacer struct {
	cfg      sim.Config
	placer   *cache.Placer
	pop      dist.Popularity // request popularity
	profile  dist.Popularity // placement profile
	condName string
	src      xrand.Source
	pcg      rand.PCG
	rng      *rand.Rand
	strat    core.Rebindable
	weights  []float64
	cond     *dist.CustomBuilder
}

func newTrialPlacer(w *sim.World) *trialPlacer {
	cfg := w.Config()
	pop := cfg.Popularity.Build(cfg.K)
	tp := &trialPlacer{
		cfg:      cfg,
		placer:   cache.NewPlacer(w.N(), cfg.M, cfg.K),
		pop:      pop,
		profile:  replication.PlacementProfile(pop, cfg.PlacementPolicy, cfg.CapFactor),
		condName: pop.Name() + "|cached",
		src:      xrand.NewSource(cfg.Seed).Split(1),
		weights:  make([]float64, cfg.K),
		cond:     dist.NewCustomBuilder(cfg.K),
	}
	tp.rng = rand.New(&tp.pcg)
	// Era 0's snapshot lends the world's index tiling and the strategy
	// instance every trial rebinds.
	s := w.Snapshot(0)
	if tix := s.Placement().TileIndex(); tix != nil {
		tp.placer.EnableTiles(tix.Tiling())
	}
	tp.strat = s.NewStrategy().(core.Rebindable)
	return tp
}

// place builds trial t's placement and returns it with the strategy
// bound to it and the trial's file sampler.
func (tp *trialPlacer) place(t uint64) (*cache.Placement, core.Strategy, dist.Popularity) {
	tp.pcg.Seed(tp.src.StreamSeed(t))
	p := tp.placer.Place(tp.profile, tp.cfg.PlacementMode, tp.rng)
	tp.strat.Rebind(p)
	if tp.cfg.MissPolicy != sim.MissResample || p.UncachedCount() == 0 {
		return p, tp.strat, tp.pop
	}
	clear(tp.weights)
	for _, j := range p.CachedFiles() {
		tp.weights[j] = tp.pop.P(int(j))
	}
	return p, tp.strat, tp.cond.Build(tp.weights, tp.condName)
}

// traceBatch replays trials layer by layer, timing each call from
// outside: placement build, request sampling, assignment and the barrier
// mutations. A quiesced world places its trials as sim.Runner does (see
// trialPlacer), and each era must replay its plain trial exactly. A
// mutating world runs its eras through the served-state API
// (sim.Snapshot), whose chunk barriers share the Runner's churn, fault
// and arrival code and whose placement has the churn layout a mutating
// Runner uses too.
func traceBatch(w *sim.World, opt options, tr *tracer) outcome {
	cfg := w.Config()
	n, nReq, g := w.N(), w.Requests(), w.Grid()
	origins := make([]int32, traceChunk)
	files := make([]int32, traceChunk)
	out := make([]core.Assignment, traceChunk)
	loads := ballsbins.NewLoads(n)
	var ref *sim.Runner
	var tp *trialPlacer
	if quiesced(cfg) {
		// Trial 0 sizes both arenas, untimed, as in the end-to-end runs.
		ref = w.NewRunner()
		ref.RunTrial(0)
		tp = newTrialPlacer(w)
		tp.place(0)
	}

	var o outcome
	var sc scaler
	var escalated, retried, backhaul, total int
	for t := uint64(1); opt.more(o.attempted); t++ {
		var want sim.Result
		if ref != nil {
			want = ref.RunTrial(t)
		}
		sc.ready()
		eraStart := time.Now()
		root := tr.begin("era", -1)
		id := tr.begin("place", root)
		var s *sim.Snapshot
		var p *cache.Placement
		var live *cache.Liveness
		var strat core.Strategy
		var pop dist.Popularity
		var view core.LoadReader = loads
		if tp != nil {
			p, strat, pop = tp.place(t)
		} else {
			s = w.Snapshot(t)
			strat = s.NewStrategy()
			p, live, pop = s.Placement(), s.Liveness(), s.FileSampler()
			view = s.WrapLoads(loads)
		}
		tr.end(id, 1)
		loads.Reset()
		s1, s2 := w.AssignSeed(t)
		rng := rand.New(rand.NewPCG(s1, s2))
		originRNG, fileRNG := w.RequestStream(t)
		var hops int64
		var err error
		for base := 0; base < nReq; base += traceChunk {
			c := min(traceChunk, nReq-base)
			id = tr.begin("sample", root)
			dist.RequestBatch(originRNG, fileRNG, n, pop, origins[:c], files[:c])
			tr.end(id, c)
			id = tr.begin("assign", root)
			for i := range c {
				a := strat.Assign(core.Request{Origin: origins[i], File: files[i]}, view, rng)
				loads.Add(int(a.Server))
				out[i] = a
			}
			tr.end(id, c)
			// Checked before the barrier mutates the placement the
			// decisions were made against.
			for i, a := range out[:c] {
				hops += int64(a.Hops)
				escalated += b2i(a.Escalated)
				retried += b2i(a.Retried)
				backhaul += b2i(a.Backhaul)
				if err == nil {
					err = checkAssignment(p, live, g, cfg.Strategy.Radius, origins[i], files[i], a)
				}
			}
			if s != nil && base+c < nReq {
				id = tr.begin("barrier", root)
				s.Advance(c)
				tr.end(id, c)
			}
		}
		tr.end(root, nReq)
		sc.spent(time.Since(eraStart))
		total += nReq
		o.attempted++
		// A quiesced era replays the batch trial decision for decision.
		if err == nil && ref != nil && (loads.Max() != want.MaxLoad || float64(hops)/float64(nReq) != want.MeanCost) {
			err = fmt.Errorf("era %d: layer replay gives max load %d, mean cost %v; the trial gave %d, %v",
				t, loads.Max(), float64(hops)/float64(nReq), want.MaxLoad, want.MeanCost)
		}
		if err != nil {
			o.fail(true, err)
		}
	}
	f := sc.factor()
	o.values = map[string]float64{
		"place_ms":         f * median(tr.durations("place", time.Millisecond, false)),
		"sample_ns":        f * median(tr.durations("sample", time.Nanosecond, true)),
		"assign_ns":        f * median(tr.durations("assign", time.Nanosecond, true)),
		"barrier_us":       f * median(tr.durations("barrier", time.Microsecond, false)),
		"escalated_per_1k": 1e3 * float64(escalated) / float64(total),
		"retried_per_1k":   1e3 * float64(retried) / float64(total),
		"backhaul_per_1k":  1e3 * float64(backhaul) / float64(total),
	}
	return o
}

// checkAssignment checks one decision against the placement and liveness
// it was made under: the server caches the file, is live, lies Hops away
// from the origin, and lies within r unless no live replica does.
func checkAssignment(p *cache.Placement, live *cache.Liveness, g *grid.Grid, r int, origin, file int32, a core.Assignment) error {
	if a.Backhaul {
		if a.Server != origin || a.Hops != 0 {
			return fmt.Errorf("backhaul of file %d at %d served by %d over %d hops", file, origin, a.Server, a.Hops)
		}
		return nil
	}
	switch {
	case !p.Has(int(a.Server), int(file)):
		return fmt.Errorf("file %d assigned to node %d, which does not cache it", file, a.Server)
	case live != nil && !live.Live(int(a.Server)):
		return fmt.Errorf("file %d assigned to dead node %d", file, a.Server)
	case int(a.Hops) != g.Dist(int(origin), int(a.Server)):
		return fmt.Errorf("request %d→%d reports %d hops, torus distance is %d", origin, a.Server, a.Hops, g.Dist(int(origin), int(a.Server)))
	case int(a.Hops) > r && !a.Escalated:
		return fmt.Errorf("request %d for file %d served %d hops away without escalating (r = %d)", origin, file, a.Hops, r)
	case a.Escalated:
		for _, v := range p.Replicas(int(file)) {
			if g.Dist(int(origin), int(v)) <= r && (live == nil || live.Live(int(v))) {
				return fmt.Errorf("request %d for file %d escalated although live replica %d lies within r = %d", origin, file, v, r)
			}
		}
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
