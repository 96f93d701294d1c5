package sim

import (
	"math/rand/v2"
	"sync"

	"repro/internal/ballsbins"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/replication"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// defaultChunk is the request-pipeline block size: the number of requests
// that flow through one generate → assign → account pass. Sized so the
// per-runner chunk buffers (5 × 4 B × chunk) stay far inside L2 while the
// per-chunk loop overhead vanishes.
const defaultChunk = 1024

// loadHistBound is the baseline resolution of the streaming load
// histogram. The actual bound scales with the mean per-node load (see
// Compile), so heavy-load configs (Requests ≫ n) keep exact quantiles;
// observations beyond the bound clamp into the top bucket as a last
// resort, and the exact maximum is tracked separately and never clamps.
const loadHistBound = 1 << 10

// World is one compiled simulation configuration: everything that is
// invariant across trials — the lattice, the popularity profile and its
// alias table, the placement profile, the ball/ring offset templates and
// the derived RNG sources — built exactly once by Compile. A World is
// immutable and safe for concurrent use; per-trial mutable state lives in
// Runners. Its RNG sources are xrand namespaces 1 and 3–8 of Config.Seed;
// namespace 2 held the retired interleaved request streams and is never
// reused, so every later namespace keeps its draws.
//
// Compiling amortizes the expensive trial-invariant setup (the Zipf PMF
// alone is K pow() calls) across the hundreds-to-thousands of trials every
// experiment point runs, which is where the simulator spends its life.
type World struct {
	cfg          Config
	g            *grid.Grid
	pop          dist.Popularity
	placeProfile dist.Popularity
	condName     string       // name of the MissResample-conditioned stream
	placeSrc     xrand.Source // namespace 1: placement streams, one per trial
	originSrc    xrand.Source // namespace 3: request origin streams
	fileSrc      xrand.Source // namespace 4: request file streams
	assignSrc    xrand.Source // namespace 5: strategy assignment streams
	churnSrc     xrand.Source // namespace 6: churn event streams
	faultSrc     xrand.Source // namespace 7: fault event streams
	heteroSrc    xrand.Source // namespace 8: hetero profile + arrival streams
	nReq         int
	chunk        int          // request-pipeline block size (tests override)
	loadBound    int          // streaming load-histogram bound
	tiling       *grid.Tiling // spatial-index geometry (bounded-radius choice strategies)
	regionTiling *grid.Tiling // FaultsRegional failure-domain geometry

	runners sync.Pool // *Runner recycling for the RunTrial convenience path
}

// Compile validates cfg and builds its trial-invariant state.
func Compile(cfg Config) (*World, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	src := xrand.NewSource(cfg.Seed)
	w := &World{
		cfg:       cfg,
		g:         grid.New(cfg.Side, cfg.Topology),
		placeSrc:  src.Split(1),
		originSrc: src.Split(3),
		fileSrc:   src.Split(4),
		assignSrc: src.Split(5),
		churnSrc:  src.Split(6),
		faultSrc:  src.Split(7),
		heteroSrc: src.Split(8),
		chunk:     defaultChunk,
	}
	if cfg.Chunk > 0 {
		w.chunk = cfg.Chunk
	}
	w.pop = cfg.Popularity.Build(cfg.K)
	w.condName = w.pop.Name() + "|cached"
	w.placeProfile = replication.PlacementProfile(w.pop, cfg.PlacementPolicy, cfg.CapFactor)
	w.nReq = cfg.Requests
	if w.nReq == 0 {
		w.nReq = w.g.N()
	}
	// The spatial replica index serves bounded-radius choice strategies;
	// the tile side tracks the radius (t ∈ [r/3, r], see tileSize) so a
	// ball cover spans a handful of tiles whose footprint scales with
	// |B_r|.
	if r, ok := indexedRadius(cfg, w.g); ok {
		w.tiling = w.g.NewTiling(tileSize(cfg.Side, r))
	}
	// Regional faults kill whole tile-aligned failure domains. The region
	// side is independent of the index tiling (which tracks the search
	// radius): a fixed geometry of roughly 4×4 regions per lattice axis
	// keeps a single event correlated but survivable.
	if cfg.Faults == FaultsRegional {
		w.regionTiling = w.g.NewTiling(regionSize(cfg.Side))
	}
	// Size the streaming load histogram to the regime: 32× the mean
	// per-node load on top of the baseline keeps quantiles exact far past
	// any max-load concentration bound, while staying O(Requests/n) —
	// constant in n for the paper's one-request-per-server regime.
	w.loadBound = loadHistBound + 32*((w.nReq+w.g.N()-1)/w.g.N())
	return w, nil
}

// Config returns the configuration the world was compiled from.
func (w *World) Config() Config { return w.cfg }

// Grid returns the compiled lattice.
func (w *World) Grid() *grid.Grid { return w.g }

// N returns the number of servers.
func (w *World) N() int { return w.g.N() }

// RunTrial executes one independent trial (trial index t under cfg.Seed).
// Identical (cfg, t) pairs produce identical results regardless of whether
// they run through a fresh world, a reused Runner, or the package-level
// RunTrial. Safe for concurrent use; runners are pooled internally.
func (w *World) RunTrial(t uint64) Result {
	r := w.pooledRunner()
	res := r.RunTrial(t)
	w.runners.Put(r)
	return res
}

// pooledRunner takes a Runner from the world's pool, or makes one. A
// pooled Runner never arms ahead (see lookahead.go).
func (w *World) pooledRunner() *Runner {
	r, _ := w.runners.Get().(*Runner)
	if r == nil {
		r = w.NewRunner()
		r.pooled = true
	}
	return r
}

// reseedRand is a reusable deterministic generator: one PCG wrapped by one
// *rand.Rand for the runner's lifetime, reseeded per trial through
// xrand.Source.StreamSeed. Reseeding in place yields sequences
// bit-identical to a freshly constructed xrand Stream while allocating
// nothing, which is what makes steady-state trials allocation-free.
type reseedRand struct {
	pcg rand.PCG
	r   *rand.Rand
}

// stream reseeds the generator to source s, stream t and returns it.
func (rr *reseedRand) stream(s xrand.Source, t uint64) *rand.Rand {
	if rr.r == nil {
		rr.r = rand.New(&rr.pcg)
	}
	rr.pcg.Seed(s.StreamSeed(t))
	return rr.r
}

// Request-record flags carried from the assign phase to the account phase.
const (
	flagEscalated = 1 << 0
	flagBackhaul  = 1 << 1
	flagRetried   = 1 << 2
)

// regionSize picks the FaultsRegional failure-domain side for a lattice
// of the given side: the largest divisor of side no larger than side/4,
// so one regional event takes out at most ~1/16 of the world. Degenerates
// to single-node regions on tiny or prime sides.
func regionSize(side int) int {
	bound := max(1, side/4)
	for t := bound; t >= 1; t-- {
		if side%t == 0 {
			return t
		}
	}
	return 1
}

// RegionNodes reports the node count of one FaultsRegional failure
// domain on an L×L lattice — the per-event blast radius. Exposed so
// experiments can scale FaultRate from a target failed fraction
// (events × RegionNodes ≈ nodes killed, ignoring region re-draws).
func RegionNodes(side int) int {
	t := regionSize(side)
	return t * t
}

// Runner executes trials of one World through reusable per-worker scratch:
// the placement builder, the load vector, the strategy instance with its
// candidate buffers, the miss-policy conditioning arenas, the per-trial
// generators and the request-pipeline chunk buffers. After its first
// trials a Runner's steady state allocates nothing. A Runner is NOT safe
// for concurrent use; create one per worker.
//
// A trial arms its state, runs its request phase as a streaming pipeline
// over fixed-size chunks, and joins its look-ahead:
//
//	arm      — swap in trial t's state if the previous call armed it
//	           ahead (placement, conditioned file sampler, request ids,
//	           the candidate walks of its first requests and the chunk
//	           views of the barriers applied ahead), arm it otherwise;
//	           then, when the caller runs trials in order, post trial
//	           t+1's job to the helper goroutine, which fills the spare
//	           state (see lookahead.go);
//	generate — take the chunk's (origin, file) ids: drawn ahead, or
//	           drawn now as one batch into the state's id arena;
//	assign   — run the strategy per request, bound to the chunk's view
//	           when its barrier was applied ahead (a request planned
//	           ahead finishes from its stored walk), updating the load
//	           vector and recording (server, hops, flags);
//	account  — fold the chunk's records into the trial accumulators
//	           (hop sum, miss counters, streaming moments) in request
//	           order, then (MetricsLinks) route each delivery into the
//	           link loads;
//	barrier  — unless the chunk was the trial's last, apply the node
//	           arrivals, faults and churn (trialState.advance) before the
//	           next chunk is generated, so strategies never observe a
//	           half-spliced placement or index, or, when the helper
//	           applied it ahead, add the load its crashes stranded;
//	join     — before RunTrial returns, stop the helper's planning and
//	           barriers and wait for it to finish trial t+1's job.
//
// Origins, files and the strategy's own draws (candidate sampling, tie
// breaks) come from three dedicated per-trial streams, so the ids can be
// drawn in batches of any partition — a whole trial ahead, or one
// dist.RequestBatch call per chunk — and the result does not depend on
// it. The sharded engine (shard.go) splits generate and assign across
// its workers and runs account and the barrier on the coordinator,
// through the same functions.
type Runner struct {
	*trialState // the current trial's state (see trial.go)

	// Look-ahead arming (see lookahead.go): the spare state, armed for
	// trial spareT when spareArmed; the helper goroutine that arms it;
	// the previous call's trial; and whether the Runner is pooled.
	spare      *trialState
	spareT     uint64
	spareArmed bool
	ahead      *armHelper
	last       uint64
	ran        bool
	pooled     bool

	loads  *ballsbins.Loads
	strat  core.Strategy
	links  *routing.LinkLoads
	assign reseedRand

	// Capacity-skew view (Config.Hetero with a non-uniform profile): the
	// weighted load view bound into the strategies' comparisons, and the
	// reader both trial loops route Assign through: the raw vector the
	// trial writes, wrapped in the weighted view under capacity skew (see
	// hetero.go).
	weighted *ballsbins.WeightedLoads
	loadView core.LoadReader

	// The current chunk's request ids (views of the state's id arena)
	// and its request records (len = min(chunk, requests)).
	origins []int32
	files   []int32
	servers []int32
	hops    []int32
	flags   []uint8

	// Streaming-metrics accumulators (MetricsStreaming only).
	hopAcc  *stats.Accumulator
	loadAcc *stats.Accumulator

	// Sharded-engine state (Config.Workers > 0; see shard.go): per-shard
	// worker scratch, the reusable start-signal channels of the worker
	// barrier protocol, and the current chunk descriptor the coordinator
	// publishes before each start signal (the channel send/recv is the
	// happens-before edge). The workers only store request records; the
	// coordinator applies their loads and accounts them at the barrier
	// with the sequential loop's account.
	shards    []shardState
	startCh   []chan struct{}
	doneWG    sync.WaitGroup
	shardT    uint64
	shardBase int
	shardC    int
}

// tileSize picks the index tile side for radius r: the largest divisor
// of the lattice side in [r/3, r], falling back to r/2 when none
// divides. Divisibility makes the precomputed cover template apply
// (uniform tiles, t | L); within the admissible band, larger tiles won
// the wide-world sweep — fewer cover rows to intersect against the
// per-file directories outweighs the extra rejection sampling on
// partial tiles (see docs/perf.md for the measured tradeoff).
func tileSize(side, r int) int {
	best := 0
	for t := max(1, r/3); t <= max(1, r); t++ {
		if side%t == 0 {
			best = t
		}
	}
	if best == 0 {
		return max(1, r/2)
	}
	return best
}

// indexedRadius reports the proximity radius the spatial index would
// serve, and whether the configured strategy has one (choice-based, with
// an effective bounded radius).
func indexedRadius(cfg Config, g *grid.Grid) (int, bool) {
	switch cfg.Strategy.Kind {
	case TwoChoices, OneChoiceRandom, Oracle:
		r := cfg.Strategy.Radius
		if r < 0 || r >= g.Diameter() {
			return 0, false // unbounded: the whole replica list is the pool
		}
		return r, true
	}
	return 0, false
}

// churnDrift* parameterize the ChurnDrift popularity drifter, in chunk
// ticks (the drifter steps once per pipeline chunk): roughly one file in
// a thousand surges per chunk, surges last 64 chunks on average and
// boost a file's migration weight 10×. The constants aim the drifter at
// visible catalog turnover within a 10⁵–10⁶ request trial; they are part
// of the seeded process frozen by the churn golden pins.
const (
	churnDriftBoost    = 10.0
	churnDriftBirth    = 1e-3
	churnDriftLifespan = 64.0
)

// NewRunner returns a fresh Runner over w.
func (w *World) NewRunner() *Runner {
	b := min(w.chunk, w.nReq)
	st := w.newTrialState()
	r := &Runner{
		trialState: &st,
		loads:      ballsbins.NewLoads(w.g.N()),
		origins:    make([]int32, b),
		files:      make([]int32, b),
		servers:    make([]int32, b),
		hops:       make([]int32, b),
		flags:      make([]uint8, b),
	}
	st.reqOrigins, st.reqFiles = r.origins, r.files // the state's id arena
	if r.heteroSt.mults != nil {
		r.weighted = &ballsbins.WeightedLoads{}
	}
	return r
}

// acct carries the scalar trial accumulators between account passes,
// which both trial loops run once per chunk in request order. Hop counts
// sum in int64, exact at any trial size.
type acct struct {
	hops      int64
	escalated int
	backhaul  int
	retried   int
}

// beginTrial is the prologue both trial loops share: it swaps in trial
// t's state if it was armed ahead, arms it and seeds its request streams
// otherwise (see trialState.arm and draw), and resets the load vector
// and the metric arenas. The trial starts from the state's Result: the
// armed placement's uncached count and the counters of any barrier
// applied ahead.
func (r *Runner) beginTrial(t uint64) Result {
	if !r.takeArmed(t) {
		r.arm(t)
		r.draw(t, 0)
	}
	r.loads.Reset()
	r.armMetrics()
	return r.res
}

// armMetrics sizes (first trial) and resets the arenas of the world's
// metrics mode: the link-load vector under MetricsLinks; the hop and load
// accumulators under MetricsStreaming.
func (r *Runner) armMetrics() {
	w := r.w
	switch w.cfg.Metrics {
	case MetricsLinks:
		if r.links == nil {
			r.links = routing.NewLinkLoads(w.g)
		} else {
			r.links.Reset()
		}
	case MetricsStreaming:
		if r.hopAcc == nil {
			r.hopAcc = stats.NewAccumulator(w.g.Diameter())
			r.loadAcc = stats.NewAccumulator(w.loadBound)
		}
		r.hopAcc.Reset()
		r.loadAcc.Reset()
	}
}

// route replays every delivery of the accounted chunk of c requests
// into the link-load vector (MetricsLinks); it touches no request
// stream.
func (r *Runner) route(c int) {
	if r.links != nil {
		for i := 0; i < c; i++ {
			r.links.Route(int(r.origins[i]), int(r.servers[i]))
		}
	}
}

// barrier runs the barrier closing chunk k, of c requests, which must
// not be the trial's last (no request would observe the mutation): it
// applies the mutations now (trialState.advance, which Snapshot.Advance
// shares), or, when the helper applied them ahead — the trial's Result
// started with their event counters — adds the current load of every
// node they crashed to DeadLoad. No request runs between the crashes of
// one barrier, so each is the load its node carried at its crash.
// Neither touches a request stream.
func (r *Runner) barrier(k, c int, res *Result) {
	if k >= r.barriersAhead {
		r.advance(c, r.nodeLoad, res)
		return
	}
	from := 0
	if k > 0 {
		from = r.views[k-1].crashEnd
	}
	for _, u := range r.crashed[from:r.views[k].crashEnd] {
		res.DeadLoad += r.nodeLoad(u)
	}
}

// finishTrial is the result epilogue both trial loops share: the account
// totals, MaxLoad and MeanCost, the link and streaming summaries, and the
// heterogeneity and fault counters.
func (r *Runner) finishTrial(res Result, a acct) Result {
	w := r.w
	res.Escalated, res.Backhaul, res.Retried = a.escalated, a.backhaul, a.retried
	res.MaxLoad = r.loads.Max()
	if w.nReq > 0 {
		res.MeanCost = float64(a.hops) / float64(w.nReq)
	}
	if r.links != nil {
		res.MaxLinkLoad = r.links.Max()
		res.LinkCongestion = r.links.CongestionFactor()
	}
	if r.hopAcc != nil {
		for u := 0; u < w.g.N(); u++ {
			r.loadAcc.Observe(r.loads.Load(u))
		}
		res.Streamed = true
		res.HopMax = r.hopAcc.Max()
		res.HopStd = r.hopAcc.Std()
		res.LoadP99 = r.loadAcc.Quantile(0.99)
	}
	r.finishHetero(&res)
	r.finishFaults(&res)
	return res
}

// RunTrial executes one independent trial. Identical (cfg, t) pairs
// produce identical results; the reused scratch never leaks state between
// trials (pinned by the cross-implementation golden tests). A caller-held
// Runner called in order arms trial t+1 while trial t's requests run
// (see lookahead.go), which changes its speed, never its results.
func (r *Runner) RunTrial(t uint64) Result {
	if r.w.cfg.Workers > 0 {
		return r.runTrialSharded(t)
	}
	w := r.w
	res := r.beginTrial(t)
	r.strat = r.bindChunk(r.strat, 0)
	r.loadView = r.wrapView(r.loads)
	if r.armAhead(t) {
		defer r.joinAhead()
	}

	var a acct
	chunk := len(r.servers)
	assignRNG := r.assign.stream(w.assignSrc, t)
	for base, k := 0, 0; base < w.nReq; base, k = base+chunk, k+1 {
		c := min(chunk, w.nReq-base)
		if k > 0 && k <= r.barriersAhead {
			// Chunk k runs on view k, or, past the views, on the state's
			// own placement and mask.
			r.strat = r.bindChunk(r.strat, k)
		}
		r.origins, r.files = r.ids(base, c)
		r.assignChunk(r.strat, assignRNG, base, c)
		r.account(c, &a)
		r.route(c)
		if base+c < w.nReq {
			r.barrier(k, c, &res)
		}
	}
	return r.finishTrial(res, a)
}

// assignChunk is the assign phase of the chunk starting at request base:
// it consumes the chunk's ids, running the strategy against the
// dedicated assignment stream. A request planned ahead (lookahead.go)
// finishes from its stored walk, with the same decision and draws.
func (r *Runner) assignChunk(strat core.Strategy, rng *rand.Rand, base, c int) {
	i := 0
	if r.plans != nil && base < r.plans.Len() {
		planner := strat.(*core.TwoChoice)
		for n := min(c, r.plans.Len()-base); i < n; i++ {
			req := core.Request{Origin: r.origins[i], File: r.files[i]}
			r.record(i, planner.AssignPlanned(req, r.plans, base+i, r.loadView, rng))
		}
	}
	for ; i < c; i++ {
		req := core.Request{Origin: r.origins[i], File: r.files[i]}
		r.record(i, strat.Assign(req, r.loadView, rng))
	}
}

// record applies one assignment to the load vector and stores its request
// record for the account phase.
func (r *Runner) record(i int, a core.Assignment) {
	r.loads.Add(int(a.Server))
	r.store(i, a)
}

// store writes request i's record (server, hops, flags) into the chunk
// buffers for the account phase. Shard workers call it directly: the
// sharded coordinator applies the loads at the barrier.
func (r *Runner) store(i int, a core.Assignment) {
	r.servers[i] = a.Server
	r.hops[i] = a.Hops
	var f uint8
	if a.Escalated {
		f |= flagEscalated
	}
	if a.Backhaul {
		f |= flagBackhaul
	}
	if a.Retried {
		f |= flagRetried
	}
	r.flags[i] = f
}

// account folds one chunk of request records into the trial accumulators.
// It never touches the RNG streams, so deferring it out of the assign loop
// is invisible to the draw order.
func (r *Runner) account(c int, a *acct) {
	for i := 0; i < c; i++ {
		a.hops += int64(r.hops[i])
		f := r.flags[i]
		if f&flagEscalated != 0 {
			a.escalated++
		}
		if f&flagBackhaul != 0 {
			a.backhaul++
		}
		if f&flagRetried != 0 {
			a.retried++
		}
	}
	if r.hopAcc != nil {
		for i := 0; i < c; i++ {
			r.hopAcc.Observe(int(r.hops[i]))
		}
	}
}
