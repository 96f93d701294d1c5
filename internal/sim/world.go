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

// LinkSketchCap is the capacity of the streaming mode's space-saving
// link sketch (stats.SpaceSaving): the number of directed-link counters
// Result.LinkMaxApprox is summarized through. Worlds whose active link
// count fits the sketch get exact maxima; wider worlds an upper bound
// within totalHops/LinkSketchCap.
const LinkSketchCap = 1 << 10

// LinkSketchMaxN gates Result.LinkMaxApprox: the sketch runs only on
// worlds with n ≤ LinkSketchMaxN nodes, i.e. while the directed-link
// count 4n stays within 64× the sketch capacity. Beyond that a k-counter
// heavy-hitter summary is pure churn — its guarantee degrades to
// "within totalHops/k", which on near-uniform torus link loads dwarfs
// any real maximum (meaningful wide-world link accounting needs Ω(n)
// counters, i.e. MetricsLinks) — and the O(totalHops) feed would
// dominate the trial. Out-of-range trials report LinkMaxApprox = 0.
const LinkSketchMaxN = 16 * LinkSketchCap

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
	r, _ := w.runners.Get().(*Runner)
	if r == nil {
		r = w.NewRunner()
	}
	res := r.RunTrial(t)
	w.runners.Put(r)
	return res
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
// generators and the request-pipeline chunk buffers. After the first trial
// a Runner's steady state allocates nothing. A Runner is NOT safe for
// concurrent use; create one per worker.
//
// A trial's request phase is a streaming pipeline over fixed-size chunks:
//
//	generate — draw (origin, file) ids into the chunk buffers;
//	assign   — run the strategy per request, updating the load vector and
//	           recording (server, hops, flags);
//	account  — fold the chunk's records into the trial accumulators
//	           (hop sum, miss counters, link loads or streaming moments);
//	barrier  — unless the chunk was the trial's last, apply the node
//	           arrivals, faults and churn (trialState.advance) before the
//	           next chunk is generated, so strategies never observe a
//	           half-spliced placement or index.
//
// Origins, files and the strategy's own draws (candidate sampling, tie
// breaks) come from three dedicated per-trial streams, so generate runs
// as one batched dist.RequestBatch call per chunk and the result does not
// depend on the chunk partition.
type Runner struct {
	trialState // re-armed every trial (see trial.go)

	loads *ballsbins.Loads
	strat core.Strategy
	links *routing.LinkLoads

	origin, file, assign reseedRand

	// Capacity-skew view (Config.Hetero with a non-uniform profile): the
	// weighted load view bound into the strategies' comparisons, and the
	// reader the sequential engine routes Assign through (the raw vector
	// otherwise — see hetero.go).
	weighted *ballsbins.WeightedLoads
	loadView core.LoadReader

	// Chunk buffers of the request pipeline (len = min(chunk, requests)).
	origins []int32
	files   []int32
	servers []int32
	hops    []int32
	flags   []uint8

	// Streaming-metrics accumulators (MetricsStreaming only).
	hopAcc  *stats.Accumulator
	loadAcc *stats.Accumulator
	links64 *stats.SpaceSaving // link heavy hitters → Result.LinkMaxApprox
	linkBuf []uint64           // per-request link ids of the XY route

	// Sharded-engine state (Config.Workers > 0; see shard.go): per-shard
	// worker scratch, the racy mode's shared atomic load vector, the
	// per-granule hop accumulators merged at each barrier, the reusable
	// start-signal channels of the worker barrier protocol, and the
	// current chunk descriptor the coordinator publishes before each
	// start signal (the channel send/recv is the happens-before edge).
	shards      []shardState
	atomicLoads *ballsbins.AtomicLoads
	granAccs    []*stats.Accumulator
	startCh     []chan struct{}
	doneWG      sync.WaitGroup
	shardT      uint64
	shardBase   int
	shardC      int
	shardLoads  core.LoadReader // raw per-chunk reader (frozen or atomic)
	shardView   core.LoadReader // what Assign compares through: shardLoads, weighted under capacity skew
	shardRacy   bool
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
	r := &Runner{
		trialState: w.newTrialState(),
		loads:      ballsbins.NewLoads(w.g.N()),
		origins:    make([]int32, b),
		files:      make([]int32, b),
		servers:    make([]int32, b),
		hops:       make([]int32, b),
		flags:      make([]uint8, b),
	}
	if r.heteroSt.mults != nil {
		r.weighted = &ballsbins.WeightedLoads{}
	}
	return r
}

// acct carries the scalar trial accumulators between account passes.
// Hop counts sum in int64: exact in any grouping, so the sharded engine's
// per-shard accounts fold to the same total as a request-order sum.
type acct struct {
	hops      int64
	escalated int
	backhaul  int
	retried   int
}

// add folds account b into a.
func (a *acct) add(b acct) {
	a.hops += b.hops
	a.escalated += b.escalated
	a.backhaul += b.backhaul
	a.retried += b.retried
}

// beginTrial is the prologue both trial loops share: it arms trial t's
// state (see trialState.arm) and resets the load vector and the metric
// arenas.
func (r *Runner) beginTrial(t uint64) Result {
	r.arm(t)
	r.loads.Reset()
	r.armMetrics()
	return Result{Requests: r.w.nReq, Uncached: r.p.UncachedCount()}
}

// armMetrics sizes (first trial) and resets the arenas of the world's
// metrics mode: the link-load vector under MetricsLinks; the hop and load
// accumulators, the link sketch and the sharded engine's per-granule
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
			if w.g.N() <= LinkSketchMaxN {
				r.links64 = stats.NewSpaceSaving(LinkSketchCap)
				r.linkBuf = make([]uint64, 0, w.g.Diameter()+1)
			}
		}
		r.hopAcc.Reset()
		r.loadAcc.Reset()
		if r.links64 != nil {
			r.links64.Reset()
		}
		for _, acc := range r.granAccs {
			acc.Reset()
		}
	}
}

// endChunk closes one accounted chunk of c requests starting at request
// base: it replays the chunk's deliveries into the link metrics — every
// XY route into the link vector (MetricsLinks) or into the heavy-hitter
// sketch (MetricsStreaming on sketch-sized worlds), recovering per-link
// traffic without the O(n) vector — then, unless the chunk was the
// trial's last (no request would observe the mutation), runs the barrier
// mutations (trialState.advance, which Snapshot.Advance shares). Neither
// step touches a request stream.
func (r *Runner) endChunk(base, c int, res *Result) {
	if r.links != nil {
		for i := 0; i < c; i++ {
			r.links.Route(int(r.origins[i]), int(r.servers[i]))
		}
	}
	if r.links64 != nil {
		g := r.w.g
		for i := 0; i < c; i++ {
			if r.hops[i] == 0 {
				continue
			}
			r.linkBuf = routing.AppendLinks(g, int(r.origins[i]), int(r.servers[i]), r.linkBuf[:0])
			for _, id := range r.linkBuf {
				r.links64.Observe(id)
			}
		}
	}
	if base+c < r.w.nReq {
		r.advance(c, r.nodeLoad, res)
	}
}

// finishTrial is the result epilogue both trial loops share: the account
// totals, MaxLoad and MeanCost, the link and streaming summaries, and the
// heterogeneity and fault counters. A racy sharded trial's loads live in
// the shared atomic vector, whose maximum the shards tracked as they
// added.
func (r *Runner) finishTrial(res Result, a acct) Result {
	w := r.w
	res.Escalated, res.Backhaul, res.Retried = a.escalated, a.backhaul, a.retried
	var loads core.LoadReader = r.loads
	res.MaxLoad = r.loads.Max()
	if r.shardRacy {
		loads, res.MaxLoad = r.atomicLoads, 0
		for s := range r.shards {
			res.MaxLoad = max(res.MaxLoad, r.shards[s].maxSeen)
		}
	}
	if w.nReq > 0 {
		res.MeanCost = float64(a.hops) / float64(w.nReq)
	}
	if r.links != nil {
		res.MaxLinkLoad = r.links.Max()
		res.LinkCongestion = r.links.CongestionFactor()
	}
	if r.hopAcc != nil {
		for u := 0; u < w.g.N(); u++ {
			r.loadAcc.Observe(loads.Load(u))
		}
		res.Streamed = true
		res.HopMax = r.hopAcc.Max()
		res.HopStd = r.hopAcc.Std()
		res.LoadP99 = r.loadAcc.Quantile(0.99)
		if r.links64 != nil {
			res.LinkMaxApprox = r.links64.MaxCount()
		}
	}
	r.finishHetero(&res)
	r.finishFaults(&res)
	return res
}

// RunTrial executes one independent trial. Identical (cfg, t) pairs
// produce identical results; the reused scratch never leaks state between
// trials (pinned by the cross-implementation golden tests).
func (r *Runner) RunTrial(t uint64) Result {
	if r.w.cfg.Workers > 0 {
		return r.runTrialSharded(t)
	}
	w := r.w
	res := r.beginTrial(t)
	// Bind before conditioning the file sampler: on the first trial this
	// is the allocation order the benchmarks were measured with.
	r.strat = r.bind(r.strat)
	strat := r.strat
	fileSampler := r.fileSampler()
	r.loadView = r.wrapView(r.loads)

	var a acct
	chunk := len(r.origins)
	originRNG := r.origin.stream(w.originSrc, t)
	fileRNG := r.file.stream(w.fileSrc, t)
	assignRNG := r.assign.stream(w.assignSrc, t)
	for base := 0; base < w.nReq; base += chunk {
		c := min(chunk, w.nReq-base)
		dist.RequestBatch(originRNG, fileRNG, w.g.N(), fileSampler, r.origins[:c], r.files[:c])
		r.assignChunk(strat, assignRNG, c)
		r.account(c, &a)
		r.endChunk(base, c, &res)
	}
	return r.finishTrial(res, a)
}

// assignChunk is the assign phase: it consumes the pre-generated chunk
// ids, running the strategy against the dedicated assignment stream.
func (r *Runner) assignChunk(strat core.Strategy, rng *rand.Rand, c int) {
	for i := 0; i < c; i++ {
		req := core.Request{Origin: r.origins[i], File: r.files[i]}
		r.record(i, strat.Assign(req, r.loadView, rng))
	}
}

// record applies one assignment to the load vector and stores its request
// record for the account phase.
func (r *Runner) record(i int, a core.Assignment) {
	r.loads.Add(int(a.Server))
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
