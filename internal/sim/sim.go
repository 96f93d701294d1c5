// Package sim is the experiment engine: it assembles a cache network
// (topology + placement + strategy) from a declarative Config, replays the
// paper's request process (n sequential requests, uniform origins, files
// drawn from the popularity profile), and aggregates the two metrics of
// Definition 1 — maximum load L and communication cost C — over many
// independent trials run in parallel.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/replication"
	"repro/internal/stats"
)

// PopKind selects the popularity profile family.
type PopKind int

const (
	// PopUniform is p_i = 1/K.
	PopUniform PopKind = iota
	// PopZipf is p_i ∝ 1/i^γ.
	PopZipf
)

// PopSpec declares the popularity profile.
type PopSpec struct {
	Kind  PopKind
	Gamma float64 // Zipf exponent; ignored for PopUniform
}

// Build materializes the profile for library size k.
func (ps PopSpec) Build(k int) dist.Popularity {
	switch ps.Kind {
	case PopUniform:
		return dist.NewUniform(k)
	case PopZipf:
		return dist.NewZipf(k, ps.Gamma)
	default:
		panic(fmt.Sprintf("sim: unknown popularity kind %d", ps.Kind))
	}
}

// StrategyKind selects the assignment strategy family.
type StrategyKind int

const (
	// Nearest is Strategy I.
	Nearest StrategyKind = iota
	// TwoChoices is Strategy II (and its d-choice generalization).
	TwoChoices
	// OneChoiceRandom is the load-blind random-replica baseline.
	OneChoiceRandom
	// Oracle is the full-information least-loaded-in-radius baseline.
	Oracle
)

var strategyNames = enumNames[StrategyKind]{"StrategyKind", "strategy", []string{"nearest", "two-choices", "one-choice", "oracle"}}

// String implements fmt.Stringer.
func (s StrategyKind) String() string { return strategyNames.format(s) }

// StrategySpec declares the assignment strategy.
type StrategySpec struct {
	Kind StrategyKind
	// Radius is the proximity constraint in hops for the choice-based
	// strategies (core.RadiusUnbounded = ∞). Ignored by Nearest.
	Radius int
	// Choices is d for TwoChoices (0 → 2).
	Choices int
	// Beta in (0,1) selects the (1+β)-choice process for TwoChoices.
	Beta float64
}

// MissPolicy resolves requests the placement cannot serve (DESIGN.md §4.4).
type MissPolicy int

const (
	// MissResample conditions the request stream on files cached
	// somewhere in the network (popularity renormalized), and escalates
	// to r = ∞ when the radius holds no replica. Default for paper
	// reproductions.
	MissResample MissPolicy = iota
	// MissEscalate keeps the unconditioned request stream; uncached
	// files are served via backhaul at the origin, radius misses escalate.
	MissEscalate
	// MissOrigin keeps the unconditioned stream and serves any miss
	// (uncached file or empty radius) via backhaul at the origin.
	MissOrigin
)

var missNames = enumNames[MissPolicy]{"MissPolicy", "miss policy", []string{"resample", "escalate", "origin"}}

// String implements fmt.Stringer.
func (m MissPolicy) String() string { return missNames.format(m) }

// MetricsMode selects how much per-trial instrumentation a trial carries
// beyond the Definition 1 scalars (max load L, mean cost C, miss
// counters), and at what memory cost.
type MetricsMode int

const (
	// MetricsScalar reports only the Definition 1 scalars. Default.
	MetricsScalar MetricsMode = iota
	// MetricsLinks additionally routes every delivery hop-by-hop (XY
	// routing) and reports link-congestion metrics. Materializes an O(n)
	// per-link load vector per runner.
	MetricsLinks
	// MetricsStreaming additionally reports per-request hop moments and a
	// load quantile through constant-memory streaming accumulators
	// (running max, Welford moments, bounded histogram — see
	// stats.Accumulator). Never materializes an O(n) metric vector, which
	// is what keeps 10⁶-node worlds at a flat memory profile; it counts no
	// links (the metrics mode draws no randomness, so a MetricsLinks run
	// of the same config and trial reports them).
	MetricsStreaming
)

var metricsNames = enumNames[MetricsMode]{"MetricsMode", "metrics mode", []string{"scalar", "links", "streaming"}}

// String implements fmt.Stringer.
func (m MetricsMode) String() string { return metricsNames.format(m) }

// Streams is the retired request-discipline knob. Every trial draws its
// origins, files and strategy picks from three dedicated per-trial
// streams (xrand namespaces 3, 4 and 5), which is what lets the engine
// generate whole chunks through dist.RequestBatch.
//
// Deprecated: split streams are the only discipline; leave Config.Streams
// unset. Config accepts only the zero value, StreamsSplit.
type Streams int

// StreamsSplit is the split-stream request discipline: the zero value of
// Streams and the only one Config accepts.
//
// Deprecated: leave Config.Streams unset.
const StreamsSplit Streams = 0

// IndexMode is the retired candidate-ladder knob. Bounded-radius choice
// strategies always enumerate S_j ∩ B_r(u) through the tile-bucketed
// replica index (cache.TileIndex over grid.Tiling); Nearest and unbounded
// radii have nothing for it to serve and build no tiling.
//
// Deprecated: the tile index is the only ladder; leave Config.Index unset.
// Config accepts only the zero value, IndexTiles.
type IndexMode int

// IndexTiles is the tile-index candidate ladder: the zero value of
// IndexMode and the only one Config accepts.
//
// Deprecated: leave Config.Index unset.
const IndexTiles IndexMode = 0

// ChurnMode selects the mid-trial placement-mutation discipline — the
// engine side of the paper's §VI dynamic regime, where caches evict and
// re-place replicas while requests keep arriving.
type ChurnMode int

const (
	// ChurnNone freezes the placement for the whole trial (every golden
	// matrix runs here; the churn RNG stream is never consumed). Default.
	ChurnNone ChurnMode = iota
	// ChurnReplicas migrates uniformly random cached replicas: each event
	// picks a (file, node) replica slot uniformly over all Σ|S_j| slots
	// and a uniformly random destination node. A destination with a free
	// cache slot receives the replica outright (cache.ReplaceReplica); a
	// full destination — the common case when K ≫ M — exchanges it for a
	// uniformly chosen resident, whose replica moves back to the source
	// (cache.SwapReplicas), so one event may relocate two files. Events
	// whose destination is the source or already caches the file, or
	// whose displaced file is already at the source, are dropped and
	// counted in Result.ChurnSkipped. Replica counts |S_j| are invariant
	// either way — only replica geography drifts.
	ChurnReplicas
	// ChurnDrift couples the migration schedule to a shot-noise
	// popularity drifter (workload.Drifter): surging files have their
	// replicas migrated proportionally more often, modelling caches that
	// chase a drifting catalog. Event mechanics (free-slot migration,
	// full-cache exchange, skip rules) and the |S_j| invariance are those
	// of ChurnReplicas.
	ChurnDrift
)

var churnNames = enumNames[ChurnMode]{"ChurnMode", "churn mode", []string{"none", "replicas", "drift"}}

// String implements fmt.Stringer.
func (c ChurnMode) String() string { return churnNames.format(c) }

// ShardMode selects the load-visibility discipline of the intra-trial
// sharded engine (Config.Workers > 0): which adds of the current chunk a
// worker's strategy sees while the other workers assign theirs. Both
// modes are reproducible: the coordinator applies every chunk's loads in
// request order at the barrier, so MaxLoad, the load quantiles and
// DeadLoad all come from one exact vector.
type ShardMode int

const (
	// ShardDeterministic freezes the load vector for the duration of each
	// pipeline chunk: every worker's strategy reads the snapshot taken at
	// the chunk barrier, assignments are recorded per shard, and the
	// coordinator applies all load deltas (and the chunk's accounting and
	// churn) serially in request order at the barrier. Request ids and
	// strategy draws come from per-granule RNG streams (see shardGranule),
	// so the result is a pure function of (cfg, trial) — bit-identical
	// across every worker count P ≥ 1, pinned by the golden table's
	// sharded pins. It is a distinct seeded process from the sequential
	// engine (frozen-snapshot chunk semantics vs live per-request loads).
	// Default.
	ShardDeterministic ShardMode = iota
	// ShardOwn lets each worker's strategy read the barrier loads plus
	// its own shard's adds since the barrier, and none of the other
	// shards' adds: at P = 1 a request sees every earlier add of its
	// chunk, at larger P about 1/P of them — balls into bins with
	// outdated information, at a staleness set by (P, chunk). The result
	// is a pure function of (cfg, trial, P).
	ShardOwn
)

var shardNames = enumNames[ShardMode]{"ShardMode", "shard mode", []string{"deterministic", "own"}}

// String implements fmt.Stringer.
func (m ShardMode) String() string { return shardNames.format(m) }

// FaultsMode selects the node fault-injection discipline: servers crash
// (and optionally recover) mid-trial while the placement stays put —
// liveness over fixed geometry, the node-departure half of the §VI
// dynamic regime. Crash and recovery events are drawn from a dedicated
// fault RNG stream and applied at chunk barriers exactly like churn, so
// the strategies always observe a consistent liveness view; between
// barriers every candidate path masks dead nodes and walks the
// graceful-degradation ladder (retry among live replicas → escalate to
// r = ∞ over live nodes → backhaul at the origin).
type FaultsMode int

const (
	// FaultsNone keeps every node live for the whole trial (every golden
	// matrix runs here; the fault RNG stream is never consumed). Default.
	FaultsNone FaultsMode = iota
	// FaultsCrash kills i.i.d. uniform live nodes at FaultRate events per
	// request and re-admits uniform dead nodes at RecoverRate — the
	// classic independent-failure model with exponential-like MTTR.
	FaultsCrash
	// FaultsRegional kills tile-aligned regions instead of single nodes:
	// each crash event picks a uniform region of the world's fault
	// tiling and kills every live node in it; each recovery event picks
	// a uniform region and revives every dead node in it — correlated
	// failures (rack, pod or geography outages) under the same rates.
	FaultsRegional
)

var faultsNames = enumNames[FaultsMode]{"FaultsMode", "faults mode", []string{"none", "crash", "regional"}}

// String implements fmt.Stringer.
func (f FaultsMode) String() string { return faultsNames.format(f) }

// Config declares one simulated world. The zero value is not runnable; use
// the documented fields (Side, K, M are mandatory).
type Config struct {
	// Side is the lattice side L; the network has n = L² servers.
	Side int
	// Topology is torus (paper default) or bounded grid.
	Topology grid.Topology
	// K is the library size; M the per-node cache size.
	K, M int
	// Popularity declares the file popularity profile (zero value:
	// Uniform, the paper's simulation setting).
	Popularity PopSpec
	// PlacementMode is with-replacement (paper) or without (ablation).
	PlacementMode cache.Mode
	// PlacementPolicy transforms popularity into the placement profile
	// (zero value: Proportional, the paper's rule). See replication.
	PlacementPolicy replication.Policy
	// CapFactor parameterizes replication.Capped (0 = default factor).
	CapFactor float64
	// Strategy declares the assignment strategy (zero value: Nearest).
	Strategy StrategySpec
	// Requests is the number of sequential requests (0 → n, the paper's
	// one-request-per-server-on-average regime).
	Requests int
	// MissPolicy resolves unservable requests (zero value: MissResample).
	MissPolicy MissPolicy
	// Metrics selects the per-trial instrumentation level (zero value:
	// MetricsScalar; see MetricsMode).
	Metrics MetricsMode
	// Streams is the retired request-discipline knob.
	//
	// Deprecated: leave unset; Config accepts only StreamsSplit.
	Streams Streams
	// Index is the retired candidate-ladder knob.
	//
	// Deprecated: leave unset; Config accepts only IndexTiles.
	Index IndexMode
	// Churn selects the mid-trial placement-mutation discipline (zero
	// value: ChurnNone; see ChurnMode). Non-none churn requires a
	// positive ChurnRate.
	Churn ChurnMode
	// ChurnRate is the expected number of replica migration events per
	// request; events are applied between pipeline chunks from a
	// dedicated churn RNG stream, so the strategies always observe a
	// consistent placement and index.
	ChurnRate float64
	// Faults selects the node fault-injection discipline (zero value:
	// FaultsNone; see FaultsMode). Non-none faults require a positive
	// FaultRate and exclude MissPolicy == MissResample: the resampled
	// request stream conditions on cached files, not live ones, so a
	// faulted world would silently re-weight the workload — use
	// MissEscalate or MissOrigin, whose streams are unconditioned.
	Faults FaultsMode
	// FaultRate is the expected number of crash events per request
	// (under FaultsRegional each event fells a whole region). Events are
	// applied between pipeline chunks from a dedicated fault RNG stream.
	FaultRate float64
	// RecoverRate is the expected number of recovery events per request
	// — the MTTR-style re-admission knob. 0 means crashes are permanent
	// for the trial.
	RecoverRate float64
	// Hetero selects the node-heterogeneity regime (zero value:
	// HeteroNone; see HeteroMode). Non-none heterogeneity draws per-node
	// cache capacities M_u and service capacities C_u from Profile.
	Hetero HeteroMode
	// Profile selects the per-node capacity distribution under a
	// non-none Hetero (zero value: ProfileUniform, the degenerate
	// M_u ≡ M, C_u ≡ 1 profile; see CacheProfile).
	Profile CacheProfile
	// ArrivalRate is the expected number of node-arrival events per
	// request under HeteroArrival: vacant nodes join the network
	// mid-trial (placement grows, liveness admits them, strategies see
	// them at the next chunk barrier). Events draw from the same
	// dedicated hetero RNG stream as the capacity profile.
	ArrivalRate float64
	// Workers is the intra-trial shard count P. 0 (default) runs the
	// sequential engine, whose loads update after every request. P ≥ 1
	// engages the sharded engine: each pipeline chunk is partitioned into
	// fixed 64-request granules owned by P workers, with loads visible
	// per Shard's discipline and all merging done at the chunk barrier.
	// Orthogonal to trial-level parallelism (Run's workers): a sharded
	// trial uses P goroutines by itself, so P is at most 1024.
	Workers int
	// Shard selects the sharded engine's load-visibility discipline
	// (zero value: ShardDeterministic; see ShardMode). Only meaningful
	// with Workers ≥ 1.
	Shard ShardMode
	// Chunk overrides the request-pipeline block size (0 → the engine
	// default, 1024). Under Workers ≥ 1 a positive Chunk must be a
	// multiple of the 64-request shard granule so chunk boundaries never
	// split a granule. Smaller chunks narrow the sharded modes' staleness
	// window and tighten the churn cadence at the cost of more barriers.
	Chunk int
	// Seed is the deterministic root seed for this configuration.
	Seed uint64
}

// N returns the number of servers n = Side².
func (c Config) N() int { return c.Side * c.Side }

// MutatesMidTrial reports whether a trial of c changes its world between
// pipeline chunks: a churn process, a fault process or node arrivals.
func (c Config) MutatesMidTrial() bool {
	return c.Churn != ChurnNone || c.Faults != FaultsNone || c.Hetero == HeteroArrival
}

// World-size bounds. Node ids and the placement's CSR offsets are int32,
// so n = Side² must fit one (46340² < 2³¹ ≤ 46341²), and the cache-slot
// arena n·max M_u is capped at maxSlots = 2²⁸, about 27× the widegrid
// paper preset's 10⁷ slots — past that a config would exhaust memory or
// overflow the offsets instead of failing validation. File ids are int32
// too, and the popularity tables, Placer and tile-index arenas are all
// O(K), so the library is capped at maxK = 2²⁴ files, the sweep spec's
// cap (a 2²⁴-file Zipf PMF alone is ~128 MiB per world). A sharded
// trial starts Workers−1 goroutines and keeps per-shard scratch, so the
// shard count is capped at maxWorkers = 1024, 32× the largest P in use;
// under ShardOwn each shard also holds an n-entry delta, so Workers·n
// shares the maxSlots budget.
const (
	maxSide    = 46340
	maxSlots   = 1 << 28
	maxK       = 1 << 24
	maxWorkers = 1 << 10
)

// maxEventRate caps ChurnRate, FaultRate, RecoverRate and ArrivalRate,
// in expected events per request. Each schedule adds rate·c to a
// float64 credit at a chunk barrier and drains it one whole event at a
// time, so the credit must stay small enough to drain: +Inf never does
// (Inf − 1 = Inf), and from 2⁵³ on subtracting 1 no longer changes the
// credit at all, so either would hang the trial. A NaN rate would
// silently schedule nothing. 64 events per request sits far above every
// rate in use (the largest is ChurnRate 5) and keeps a 1024-request
// chunk's credit near 2¹⁶.
const maxEventRate = 64

func (c Config) validate() error {
	if c.Side <= 0 || c.Side > maxSide {
		return fmt.Errorf("sim: Side must be in [1, %d] (n = Side² must fit int32 node ids), got %d", maxSide, c.Side)
	}
	if c.K <= 0 || c.M <= 0 {
		return fmt.Errorf("sim: K and M must be positive, got K=%d M=%d", c.K, c.M)
	}
	if c.K > maxK {
		return fmt.Errorf("sim: K must be at most %d files, got %d", maxK, c.K)
	}
	if c.Requests < 0 {
		return fmt.Errorf("sim: Requests must be non-negative, got %d", c.Requests)
	}
	if err := c.validateModel(); err != nil {
		return err
	}
	if c.Metrics < MetricsScalar || c.Metrics > MetricsStreaming {
		return fmt.Errorf("sim: unknown metrics mode %d", int(c.Metrics))
	}
	if c.Streams != StreamsSplit {
		return fmt.Errorf("sim: Streams %d is retired; split streams are the only request discipline (leave it unset)", int(c.Streams))
	}
	if c.Index != IndexTiles {
		return fmt.Errorf("sim: Index %d is retired; the tile index is the only candidate ladder (leave it unset)", int(c.Index))
	}
	for _, r := range [...]struct {
		name string
		v    float64
	}{{"ChurnRate", c.ChurnRate}, {"FaultRate", c.FaultRate}, {"RecoverRate", c.RecoverRate}, {"ArrivalRate", c.ArrivalRate}} {
		// The negated form also rejects NaN, which fails every comparison.
		if !(r.v <= maxEventRate) {
			return fmt.Errorf("sim: %s must be finite and at most %d events per request, got %v", r.name, maxEventRate, r.v)
		}
	}
	if c.Churn < ChurnNone || c.Churn > ChurnDrift {
		return fmt.Errorf("sim: unknown churn mode %d", int(c.Churn))
	}
	if c.Churn != ChurnNone && c.ChurnRate <= 0 {
		return fmt.Errorf("sim: churn mode %v needs a positive ChurnRate", c.Churn)
	}
	if c.Churn == ChurnNone && c.ChurnRate != 0 {
		return fmt.Errorf("sim: ChurnRate %v needs a churn mode (set Config.Churn)", c.ChurnRate)
	}
	if c.Faults < FaultsNone || c.Faults > FaultsRegional {
		return fmt.Errorf("sim: unknown faults mode %d", int(c.Faults))
	}
	if c.Faults != FaultsNone && c.FaultRate <= 0 {
		return fmt.Errorf("sim: faults mode %v needs a positive FaultRate", c.Faults)
	}
	if c.Faults == FaultsNone && (c.FaultRate != 0 || c.RecoverRate != 0) {
		return fmt.Errorf("sim: FaultRate/RecoverRate %v/%v need a faults mode (set Config.Faults)", c.FaultRate, c.RecoverRate)
	}
	if c.RecoverRate < 0 {
		return fmt.Errorf("sim: RecoverRate must be non-negative, got %v", c.RecoverRate)
	}
	if c.Faults != FaultsNone && c.MissPolicy == MissResample {
		return fmt.Errorf("sim: faults mode %v cannot combine with MissPolicy=resample (the resampled stream conditions on cached files, not live ones); use MissEscalate or MissOrigin", c.Faults)
	}
	if c.Hetero < HeteroNone || c.Hetero > HeteroArrival {
		return fmt.Errorf("sim: unknown hetero mode %d", int(c.Hetero))
	}
	if c.Profile < ProfileUniform || c.Profile > ProfilePowerLaw {
		return fmt.Errorf("sim: unknown cache profile %d", int(c.Profile))
	}
	if c.Hetero == HeteroNone && c.Profile != ProfileUniform {
		return fmt.Errorf("sim: Profile %v needs a hetero mode (set Config.Hetero)", c.Profile)
	}
	if c.Hetero != HeteroArrival && c.ArrivalRate != 0 {
		return fmt.Errorf("sim: ArrivalRate %v needs Hetero=arrival", c.ArrivalRate)
	}
	if c.Hetero == HeteroArrival && c.ArrivalRate <= 0 {
		return fmt.Errorf("sim: Hetero=arrival needs a positive ArrivalRate")
	}
	if c.Hetero == HeteroArrival && c.MissPolicy == MissResample {
		return fmt.Errorf("sim: Hetero=arrival cannot combine with MissPolicy=resample (arrivals grow the cached set mid-trial, invalidating the conditioned stream); use MissEscalate or MissOrigin")
	}
	// Divide rather than multiply, so the check itself cannot overflow.
	if c.M > maxSlots || profileMaxCap(c.Profile, c.M) > maxSlots/c.N() {
		return fmt.Errorf("sim: Side=%d with M=%d (profile %v) exceeds the %d-slot world budget", c.Side, c.M, c.Profile, maxSlots)
	}
	if c.Workers < 0 || c.Workers > maxWorkers {
		return fmt.Errorf("sim: Workers must be in [0, %d], got %d", maxWorkers, c.Workers)
	}
	if c.Shard < ShardDeterministic || c.Shard > ShardOwn {
		return fmt.Errorf("sim: unknown shard mode %d", int(c.Shard))
	}
	if c.Shard == ShardOwn && c.Workers > maxSlots/c.N() {
		return fmt.Errorf("sim: Side=%d with Workers=%d exceeds the %d-slot budget of the %v mode's per-shard load deltas", c.Side, c.Workers, maxSlots, c.Shard)
	}
	if c.Workers == 0 && c.Shard != ShardDeterministic {
		return fmt.Errorf("sim: shard mode %v needs intra-trial workers (set Config.Workers)", c.Shard)
	}
	if c.Chunk < 0 {
		return fmt.Errorf("sim: Chunk must be non-negative, got %d", c.Chunk)
	}
	if c.Workers > 0 && c.Chunk > 0 && c.Chunk%shardGranule != 0 {
		return fmt.Errorf("sim: Workers=%d needs Chunk to be a multiple of the %d-request shard granule, got %d", c.Workers, shardGranule, c.Chunk)
	}
	return nil
}

// validateModel checks the model fields — topology, popularity,
// placement, miss policy, and each strategy field the configured
// strategy reads — so a bad value fails here, naming its field, instead
// of panicking inside a trial or silently running some other model.
func (c Config) validateModel() error {
	if c.Topology != grid.Torus && c.Topology != grid.Bounded {
		return fmt.Errorf("sim: unknown Topology %d", int(c.Topology))
	}
	switch c.Popularity.Kind {
	case PopUniform:
	case PopZipf:
		// The negated form also rejects NaN.
		if g := c.Popularity.Gamma; !(g >= 0) || math.IsInf(g, 1) {
			return fmt.Errorf("sim: Popularity.Gamma must be finite and non-negative, got %v", g)
		}
	default:
		return fmt.Errorf("sim: unknown Popularity.Kind %d", int(c.Popularity.Kind))
	}
	if c.PlacementMode != cache.WithReplacement && c.PlacementMode != cache.WithoutReplacement {
		return fmt.Errorf("sim: unknown PlacementMode %d", int(c.PlacementMode))
	}
	if c.PlacementPolicy < replication.Proportional || c.PlacementPolicy > replication.Capped {
		return fmt.Errorf("sim: unknown PlacementPolicy %d", int(c.PlacementPolicy))
	}
	if c.PlacementPolicy == replication.Capped && (math.IsNaN(c.CapFactor) || math.IsInf(c.CapFactor, 0)) {
		return fmt.Errorf("sim: CapFactor must be finite, got %v", c.CapFactor)
	}
	if c.MissPolicy < MissResample || c.MissPolicy > MissOrigin {
		return fmt.Errorf("sim: unknown MissPolicy %d", int(c.MissPolicy))
	}
	sp := c.Strategy
	switch sp.Kind {
	case Nearest:
		return nil
	case TwoChoices:
		if sp.Choices < 0 {
			return fmt.Errorf("sim: Strategy.Choices must be non-negative (0 means 2), got %d", sp.Choices)
		}
		if !(sp.Beta >= 0 && sp.Beta <= 1) {
			return fmt.Errorf("sim: Strategy.Beta must lie in [0, 1], got %v", sp.Beta)
		}
	case OneChoiceRandom, Oracle:
	default:
		return fmt.Errorf("sim: unknown Strategy.Kind %d", int(sp.Kind))
	}
	if sp.Radius < core.RadiusUnbounded {
		return fmt.Errorf("sim: Strategy.Radius must be at least %d (unbounded), got %d", core.RadiusUnbounded, sp.Radius)
	}
	return nil
}

// Result holds the metrics of a single trial.
type Result struct {
	MaxLoad   int     // L = max_i T_i (Definition 1)
	MeanCost  float64 // C = average hops over requests (Definition 1)
	Requests  int     // requests issued
	Escalated int     // radius misses that widened to r = ∞
	Backhaul  int     // requests served from upstream at the origin
	// Uncached counts library files with zero replicas when the trial's
	// placement is built; node arrivals can cache some of them mid-trial.
	Uncached int

	// Churn counters, populated only under a non-none Config.Churn.
	ChurnEvents  int // replica migrations applied this trial
	ChurnSkipped int // scheduled events dropped as infeasible (see ChurnMode)

	// Fault-injection metrics, populated only under a non-none
	// Config.Faults (Faulted marks them live so all-zero outcomes stay
	// distinguishable from FaultsNone).
	Faulted       bool    // the fault scheduler ran for this trial
	FaultEvents   int     // crash events applied (regions under FaultsRegional)
	RecoverEvents int     // recovery events applied
	FaultSkipped  int     // scheduled events dropped (no live/dead node to hit)
	DeadNodes     int     // dead nodes at trial end
	DeadLoad      int     // load stranded on servers at their crash instants
	Retried       int     // requests that rejected ≥ 1 dead candidate (degraded path)
	Availability  float64 // served in-network: (Requests - Backhaul) / Requests

	// Node-arrival counters, populated only under Hetero == HeteroArrival
	// (HeteroCapacity leaves them zero, which is what keeps the
	// degenerate-profile Result equal to HeteroNone's field for field).
	ArrivalEvents  int // vacant nodes admitted this trial
	ArrivalSkipped int // scheduled arrivals dropped (no vacant node left)
	Vacant         int // nodes still vacant at trial end

	// Link metrics, populated only in MetricsLinks mode.
	MaxLinkLoad    int64   // traffic on the hottest directed link
	LinkCongestion float64 // max/mean link load (1 = perfectly even)

	// Streaming metrics, populated only in MetricsStreaming mode:
	// computed through constant-memory accumulators, never materializing
	// an O(n) metric vector.
	Streamed bool    // streaming accumulators ran for this trial
	HopMax   int     // longest single delivery path (hops)
	HopStd   float64 // sample std dev of per-request hops
	LoadP99  int     // 99th-percentile final node load
}

// lastWorld memoizes the most recently compiled world, so callers that
// loop RunTrial over one configuration (benchmarks, simple drivers) get
// compile-once behaviour without managing a World themselves. Config is a
// comparable value type, so the lookup is a single struct compare.
var lastWorld atomic.Pointer[World]

// RunTrial executes one independent trial (trial index t under cfg.Seed).
// Identical (cfg, t) pairs produce identical results. This is a thin
// wrapper over Compile + World.RunTrial; use those directly to amortize
// compilation across many trials of many configurations.
func RunTrial(cfg Config, t uint64) (Result, error) {
	w := lastWorld.Load()
	if w == nil || w.cfg != cfg {
		var err error
		if w, err = Compile(cfg); err != nil {
			return Result{}, err
		}
		lastWorld.Store(w)
	}
	return w.RunTrial(t), nil
}

// buildStrategy materializes cfg.Strategy over a concrete world.
func buildStrategy(cfg Config, g *grid.Grid, p *cache.Placement) core.Strategy {
	sp := cfg.Strategy
	switch sp.Kind {
	case Nearest:
		return core.NewNearestReplica(g, p)
	case TwoChoices:
		return core.NewTwoChoice(g, p, core.TwoChoiceConfig{
			Radius:     sp.Radius,
			Choices:    sp.Choices,
			Beta:       sp.Beta,
			NoEscalate: cfg.MissPolicy == MissOrigin,
		})
	case OneChoiceRandom:
		return core.NewTwoChoice(g, p, core.TwoChoiceConfig{
			Radius:     sp.Radius,
			Choices:    1,
			NoEscalate: cfg.MissPolicy == MissOrigin,
		})
	case Oracle:
		return core.NewLeastLoadedOracle(g, p, core.TwoChoiceConfig{
			Radius:     sp.Radius,
			NoEscalate: cfg.MissPolicy == MissOrigin,
		})
	default:
		panic(fmt.Sprintf("sim: unknown strategy kind %d", sp.Kind))
	}
}

// Aggregate folds trial results into experiment-level statistics.
type Aggregate struct {
	Trials    int
	MaxLoad   stats.Summary
	MeanCost  stats.Summary
	Escalated stats.Summary // per-trial escalation fraction
	Backhaul  stats.Summary // per-trial backhaul fraction
	Uncached  stats.Summary // per-trial uncached-file count

	// Link metrics (only meaningful in MetricsLinks mode).
	MaxLinkLoad    stats.Summary
	LinkCongestion stats.Summary

	// Streaming metrics (only meaningful in MetricsStreaming mode).
	HopMax  stats.Summary
	HopStd  stats.Summary
	LoadP99 stats.Summary

	// Churn counters (only meaningful under a non-none Config.Churn).
	ChurnEvents  stats.Summary
	ChurnSkipped stats.Summary

	// Fault-injection metrics (only meaningful under a non-none
	// Config.Faults). Availability and Retried are per-trial fractions
	// of requests; the rest are per-trial counts.
	Availability  stats.Summary
	Retried       stats.Summary
	FaultEvents   stats.Summary
	RecoverEvents stats.Summary
	FaultSkipped  stats.Summary
	DeadNodes     stats.Summary
	DeadLoad      stats.Summary

	// Node-arrival counters (only meaningful under Hetero ==
	// HeteroArrival).
	ArrivalEvents  stats.Summary
	ArrivalSkipped stats.Summary
	Vacant         stats.Summary
}

// Add folds one trial result into the aggregate.
func (a *Aggregate) Add(r Result) {
	a.Trials++
	a.MaxLoad.Add(float64(r.MaxLoad))
	a.MeanCost.Add(r.MeanCost)
	if r.Requests > 0 {
		a.Escalated.Add(float64(r.Escalated) / float64(r.Requests))
		a.Backhaul.Add(float64(r.Backhaul) / float64(r.Requests))
	}
	a.Uncached.Add(float64(r.Uncached))
	if r.LinkCongestion > 0 {
		a.MaxLinkLoad.Add(float64(r.MaxLinkLoad))
		a.LinkCongestion.Add(r.LinkCongestion)
	}
	if r.Streamed {
		a.HopMax.Add(float64(r.HopMax))
		a.HopStd.Add(r.HopStd)
		a.LoadP99.Add(float64(r.LoadP99))
	}
	if r.ChurnEvents > 0 || r.ChurnSkipped > 0 {
		a.ChurnEvents.Add(float64(r.ChurnEvents))
		a.ChurnSkipped.Add(float64(r.ChurnSkipped))
	}
	if r.Faulted {
		a.Availability.Add(r.Availability)
		if r.Requests > 0 {
			a.Retried.Add(float64(r.Retried) / float64(r.Requests))
		}
		a.FaultEvents.Add(float64(r.FaultEvents))
		a.RecoverEvents.Add(float64(r.RecoverEvents))
		a.FaultSkipped.Add(float64(r.FaultSkipped))
		a.DeadNodes.Add(float64(r.DeadNodes))
		a.DeadLoad.Add(float64(r.DeadLoad))
	}
	if r.ArrivalEvents > 0 || r.ArrivalSkipped > 0 || r.Vacant > 0 {
		a.ArrivalEvents.Add(float64(r.ArrivalEvents))
		a.ArrivalSkipped.Add(float64(r.ArrivalSkipped))
		a.Vacant.Add(float64(r.Vacant))
	}
}

// Merge folds another aggregate into a (parallel reduction).
func (a *Aggregate) Merge(o Aggregate) {
	a.Trials += o.Trials
	a.MaxLoad.Merge(o.MaxLoad)
	a.MeanCost.Merge(o.MeanCost)
	a.Escalated.Merge(o.Escalated)
	a.Backhaul.Merge(o.Backhaul)
	a.Uncached.Merge(o.Uncached)
	a.MaxLinkLoad.Merge(o.MaxLinkLoad)
	a.LinkCongestion.Merge(o.LinkCongestion)
	a.HopMax.Merge(o.HopMax)
	a.HopStd.Merge(o.HopStd)
	a.LoadP99.Merge(o.LoadP99)
	a.ChurnEvents.Merge(o.ChurnEvents)
	a.ChurnSkipped.Merge(o.ChurnSkipped)
	a.Availability.Merge(o.Availability)
	a.Retried.Merge(o.Retried)
	a.FaultEvents.Merge(o.FaultEvents)
	a.RecoverEvents.Merge(o.RecoverEvents)
	a.FaultSkipped.Merge(o.FaultSkipped)
	a.DeadNodes.Merge(o.DeadNodes)
	a.DeadLoad.Merge(o.DeadLoad)
	a.ArrivalEvents.Merge(o.ArrivalEvents)
	a.ArrivalSkipped.Merge(o.ArrivalSkipped)
	a.Vacant.Merge(o.Vacant)
}

// String renders the headline metrics.
func (a Aggregate) String() string {
	return fmt.Sprintf("L=%.3f±%.3f C=%.3f±%.3f (trials=%d)",
		a.MaxLoad.Mean(), a.MaxLoad.CI95(), a.MeanCost.Mean(), a.MeanCost.CI95(), a.Trials)
}
