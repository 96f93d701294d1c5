// Package repro is the public facade of the cache-network load-balancing
// library reproducing "Proximity-Aware Balanced Allocations in Cache
// Networks" (Pourmiri, Jafari Siavoshani, Shariatpanahi; IPDPS 2017).
//
// The library simulates a torus of n caching servers, each holding M of K
// files placed proportionally to popularity, and measures two request
// assignment strategies:
//
//   - Strategy I (nearest replica): minimum communication cost,
//     maximum load Θ(log n);
//   - Strategy II (proximity-aware two choices): maximum load
//     Θ(log log n) at communication cost Θ(r) whenever
//     α + 2β ≥ 1 + 2·log log n / log n for M = n^α, r = n^β (Theorem 4).
//
// Quick start:
//
//	cfg := repro.Config{Side: 45, K: 500, M: 10,
//	    Strategy: repro.StrategySpec{Kind: repro.TwoChoices, Radius: 8}}
//	agg, err := repro.Run(cfg, 100, 0)
//	fmt.Println(agg) // max load and communication cost with 95% CIs
//
// The full experiment suite reproducing every figure and table of the
// paper lives behind repro.Experiment:
//
//	table, err := repro.Experiment("fig5", repro.ExpOptions{})
//	table.WriteCSV(os.Stdout)
//
// Lower-level building blocks (topology, placement, Voronoi tessellation,
// configuration graph, classic balls-into-bins processes, the supermarket
// queueing model) are exposed through type aliases below so downstream
// code can compose them directly.
package repro

import (
	"math/rand/v2"

	"repro/internal/ballsbins"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/queueing"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Topology and lattice types.
type (
	// Grid is the √n×√n lattice the cache network lives on.
	Grid = grid.Grid
	// Topology selects torus (paper default) or bounded grid.
	Topology = grid.Topology
)

// Topology constants.
const (
	// Torus wraps both dimensions (no boundary effects, Remark 1).
	Torus = grid.Torus
	// Bounded is the plain grid with boundary.
	Bounded = grid.Bounded
)

// NewGrid returns an L×L lattice. See grid.New.
func NewGrid(side int, topo Topology) *Grid { return grid.New(side, topo) }

// Popularity profiles.
type (
	// Popularity is a probability distribution over the file library.
	Popularity = dist.Popularity
	// Uniform is the equal-popularity profile.
	Uniform = dist.Uniform
	// Zipf is the rank-skewed profile p_i ∝ 1/i^γ.
	Zipf = dist.Zipf
)

// NewUniform returns the Uniform profile over k files.
func NewUniform(k int) Uniform { return dist.NewUniform(k) }

// NewZipf returns the Zipf(γ) profile over k files.
func NewZipf(k int, gamma float64) *Zipf { return dist.NewZipf(k, gamma) }

// Cache placement.
type (
	// Placement is an immutable cache assignment (node → files plus the
	// inverted replica index).
	Placement = cache.Placement
	// PlacementMode selects with- or without-replacement sampling.
	PlacementMode = cache.Mode
)

// Placement mode constants.
const (
	// WithReplacement matches the paper's proportional placement.
	WithReplacement = cache.WithReplacement
	// WithoutReplacement is the distinct-files ablation variant.
	WithoutReplacement = cache.WithoutReplacement
)

// Place draws a cache placement: n nodes, m slots each, files sampled from
// pop. See cache.Place.
func Place(n, m int, pop Popularity, mode PlacementMode, r *rand.Rand) *Placement {
	return cache.Place(n, m, pop, mode, r)
}

// ReplicationPolicy transforms popularity into the placement profile.
type ReplicationPolicy = replication.Policy

// Replication policy constants for Config.PlacementPolicy.
const (
	// Proportional caches ∝ popularity (paper default; load-optimal).
	Proportional = replication.Proportional
	// SquareRootPlace caches ∝ √popularity (search-optimal classic).
	SquareRootPlace = replication.SquareRoot
	// UniformPlace ignores popularity.
	UniformPlace = replication.UniformPlace
	// CappedPlace caps any single file's placement mass.
	CappedPlace = replication.Capped
)

// Strategies (the paper's contribution).
type (
	// Request is one content demand (origin node, file).
	Request = core.Request
	// Assignment is a served request (server, hops, miss flags).
	Assignment = core.Assignment
	// Strategy maps requests to servers given current loads.
	Strategy = core.Strategy
	// NearestReplica is Strategy I.
	NearestReplica = core.NearestReplica
	// TwoChoice is Strategy II and its d-choice generalization.
	TwoChoice = core.TwoChoice
	// TwoChoiceConfig parameterizes Strategy II.
	TwoChoiceConfig = core.TwoChoiceConfig
	// Loads tracks per-server load during an allocation.
	Loads = ballsbins.Loads
)

// RadiusUnbounded selects r = ∞ for choice-based strategies.
const RadiusUnbounded = core.RadiusUnbounded

// NewNearestReplica builds Strategy I over a world.
func NewNearestReplica(g *Grid, p *Placement) *NearestReplica {
	return core.NewNearestReplica(g, p)
}

// NewTwoChoice builds Strategy II over a world.
func NewTwoChoice(g *Grid, p *Placement, cfg TwoChoiceConfig) *TwoChoice {
	return core.NewTwoChoice(g, p, cfg)
}

// NewLoads returns an all-zero load vector over n servers.
func NewLoads(n int) *Loads { return ballsbins.NewLoads(n) }

// Simulation engine.
type (
	// Config declares one simulated world (topology, placement,
	// strategy, request process).
	Config = sim.Config
	// StrategySpec declares the assignment strategy inside a Config.
	StrategySpec = sim.StrategySpec
	// PopSpec declares the popularity profile inside a Config.
	PopSpec = sim.PopSpec
	// MissPolicy resolves unservable requests.
	MissPolicy = sim.MissPolicy
	// Result holds one trial's metrics.
	Result = sim.Result
	// Aggregate holds experiment-level statistics over trials.
	Aggregate = sim.Aggregate
	// Summary is a streaming mean/variance/CI accumulator.
	Summary = stats.Summary
	// Accumulator streams observations into running max, Welford moments
	// and a bounded histogram — the constant-memory metric building block
	// of the engine's streaming mode.
	Accumulator = stats.Accumulator
	// MetricsMode selects per-trial instrumentation (scalar, links,
	// streaming).
	MetricsMode = sim.MetricsMode
	// ChurnMode selects the mid-trial placement-mutation discipline of
	// the §VI dynamic regime (none, replicas or drift).
	ChurnMode = sim.ChurnMode
	// ShardMode selects the intra-trial sharded engine's load-visibility
	// discipline (deterministic or own) when Config.Workers > 0.
	ShardMode = sim.ShardMode
	// FaultsMode selects the node fault-injection discipline (none,
	// crash or regional): servers crash and recover mid-trial, with the
	// strategies masking dead nodes through a graceful-degradation
	// ladder.
	FaultsMode = sim.FaultsMode
	// HeteroMode selects the node-heterogeneity regime (none, capacity or
	// arrival): per-node cache sizes M_u and service capacities C_u drawn
	// from Config.Profile, with the arrival variant growing the network
	// mid-trial as vacant nodes join.
	HeteroMode = sim.HeteroMode
	// CacheProfile selects the per-node (M_u, C_u) distribution of the
	// heterogeneous regimes (uniform, two-tier or power-law).
	CacheProfile = sim.CacheProfile
	// WeightedLoads is the capacity-normalized load view of the
	// heterogeneous regimes: strategies compare load/C_u through it while
	// writes stay on the raw vector.
	WeightedLoads = ballsbins.WeightedLoads
	// Drifter is the shot-noise popularity-activity core driving the
	// drift-coupled churn schedule and the workload streams.
	Drifter = workload.Drifter
)

// NewAccumulator returns a streaming accumulator whose histogram resolves
// values in [0, bound].
func NewAccumulator(bound int) *Accumulator { return stats.NewAccumulator(bound) }

// Metrics mode constants for Config.Metrics.
const (
	// MetricsScalar reports only the Definition 1 scalars (default).
	MetricsScalar = sim.MetricsScalar
	// MetricsLinks materializes per-link loads and reports congestion.
	MetricsLinks = sim.MetricsLinks
	// MetricsStreaming reports hop moments and load quantiles through
	// constant-memory accumulators (flat memory at any world size).
	MetricsStreaming = sim.MetricsStreaming
)

// Shard discipline constants for Config.Shard (with Config.Workers > 0).
const (
	// ShardDeterministic freezes chunk-barrier load snapshots; results
	// are bit-identical across every worker count (default,
	// golden-pinned).
	ShardDeterministic = sim.ShardDeterministic
	// ShardOwn lets each worker read the barrier loads plus its own
	// shard's adds since the barrier; results depend on P, never on
	// scheduling.
	ShardOwn = sim.ShardOwn
)

// Churn discipline constants for Config.Churn.
const (
	// ChurnNone freezes the placement for the whole trial (default,
	// golden-pinned).
	ChurnNone = sim.ChurnNone
	// ChurnReplicas migrates uniformly random cached replicas mid-trial.
	ChurnReplicas = sim.ChurnReplicas
	// ChurnDrift couples migrations to a shot-noise popularity drifter.
	ChurnDrift = sim.ChurnDrift
)

// Fault discipline constants for Config.Faults (with Config.FaultRate
// and Config.RecoverRate expected events per request).
const (
	// FaultsNone keeps every node live for the whole trial (default,
	// golden-pinned).
	FaultsNone = sim.FaultsNone
	// FaultsCrash kills uniform live nodes and revives uniform dead ones
	// (MTTR-style re-admission).
	FaultsCrash = sim.FaultsCrash
	// FaultsRegional kills and revives whole tile-aligned regions —
	// correlated failure domains.
	FaultsRegional = sim.FaultsRegional
)

// Heterogeneity regime constants for Config.Hetero.
const (
	// HeteroNone is the homogeneous paper model (default, golden-pinned).
	HeteroNone = sim.HeteroNone
	// HeteroCapacity draws per-node cache sizes and service capacities
	// from Config.Profile; two-choices compares load/C_u.
	HeteroCapacity = sim.HeteroCapacity
	// HeteroArrival is HeteroCapacity plus mid-trial node arrivals at
	// Config.ArrivalRate expected joins per request.
	HeteroArrival = sim.HeteroArrival
)

// Cache-profile constants for Config.Profile.
const (
	// ProfileUniform is the degenerate profile M_u = M, C_u = 1
	// (bit-identical to the homogeneous engine).
	ProfileUniform = sim.ProfileUniform
	// ProfileTwoTier makes ~25% of nodes big (2M slots, double rate).
	ProfileTwoTier = sim.ProfileTwoTier
	// ProfilePowerLaw draws Pareto-tailed cache sizes in [1, 8M].
	ProfilePowerLaw = sim.ProfilePowerLaw
)

// NewDrifter returns a shot-noise activity core over k files. See
// workload.NewDrifter.
func NewDrifter(k int, boost, birthRate, lifespan float64) *Drifter {
	return workload.NewDrifter(k, boost, birthRate, lifespan)
}

// NewWeightedLoads returns a capacity-weighted view of inner under mult
// (per-bin positive multipliers). See ballsbins.NewWeightedLoads.
func NewWeightedLoads(inner interface{ Load(i int) int }, mult []int32) *WeightedLoads {
	return ballsbins.NewWeightedLoads(inner, mult)
}

// Strategy kind constants for StrategySpec.Kind.
const (
	// Nearest is Strategy I.
	Nearest = sim.Nearest
	// TwoChoices is Strategy II.
	TwoChoices = sim.TwoChoices
	// OneChoiceRandom is the load-blind random-replica baseline.
	OneChoiceRandom = sim.OneChoiceRandom
	// Oracle is the full-information least-loaded baseline.
	Oracle = sim.Oracle
)

// Popularity kind constants for PopSpec.Kind.
const (
	// PopUniform selects the Uniform profile.
	PopUniform = sim.PopUniform
	// PopZipf selects the Zipf profile (set PopSpec.Gamma).
	PopZipf = sim.PopZipf
)

// Miss policy constants.
const (
	// MissResample conditions requests on cached files (paper default).
	MissResample = sim.MissResample
	// MissEscalate serves uncached files via backhaul, widens radii.
	MissEscalate = sim.MissEscalate
	// MissOrigin serves every miss at the origin.
	MissOrigin = sim.MissOrigin
)

// Compiled simulation worlds (the engine's hot path).
type (
	// World is a compiled, trial-invariant simulation configuration:
	// grid, popularity profile, placement profile and sampling templates
	// built once and shared by every trial. Immutable and safe for
	// concurrent use.
	World = sim.World
	// Runner executes trials of one World through reusable per-worker
	// scratch. Not safe for concurrent use; create one per worker.
	Runner = sim.Runner
	// Snapshot is one era of served placement state — the mutable trial
	// state extracted from the Runner so the daemon (cmd/cachesimd,
	// internal/serve) can evolve and publish it copy-on-write. Built by
	// World.Snapshot.
	Snapshot = sim.Snapshot
	// SnapshotInfo is the placement-era diagnostic stamp shared by batch
	// (cachesim -v) and served (/metrics) modes.
	SnapshotInfo = sim.SnapshotInfo
)

// Compile validates cfg and builds its trial-invariant state once. Use
// World.RunTrial / World.NewRunner to execute trials against it.
func Compile(cfg Config) (*World, error) { return sim.Compile(cfg) }

// RunTrial executes one deterministic simulation trial.
func RunTrial(cfg Config, trial uint64) (Result, error) { return sim.RunTrial(cfg, trial) }

// Run executes trials in parallel and aggregates (workers ≤ 0 uses
// GOMAXPROCS); results are independent of the worker count.
func Run(cfg Config, trials, workers int) (Aggregate, error) { return sim.Run(cfg, trials, workers) }

// RunSeries executes Run over a slice of configs (one experiment curve),
// fanning configurations and trials out across one shared worker pool.
// Results are in input order, bit-identical to per-point Run.
func RunSeries(cfgs []Config, trials, workers int) ([]Aggregate, error) {
	return sim.RunSeries(cfgs, trials, workers)
}

// Queueing extension (§VI conjecture).
type (
	// QueueConfig declares a supermarket-model run.
	QueueConfig = queueing.Config
	// QueueResult holds its steady-state observations.
	QueueResult = queueing.Result
)

// RunQueue executes the continuous-time supermarket simulation.
func RunQueue(cfg QueueConfig) (QueueResult, error) { return queueing.Run(cfg) }

// Experiments (paper figures and tables).
type (
	// ExpOptions configures an experiment run (preset, trials, seed).
	ExpOptions = experiments.Options
	// ExpTable is one reproduced figure or table.
	ExpTable = experiments.Table
)

// Experiment presets.
const (
	// PresetQuick is CI-sized (minutes).
	PresetQuick = experiments.Quick
	// PresetPaper approaches the paper's replica counts (hours).
	PresetPaper = experiments.Paper
)

// Experiment runs the reproduction registered under id ("fig1".."fig5",
// "zipf-cost", "thm12", "thm4", "lemma1", "confgraph", "example3",
// "supermarket", "uniform-cost-law").
func Experiment(id string, opt ExpOptions) (*ExpTable, error) {
	r, err := experiments.Lookup(id)
	if err != nil {
		return nil, err
	}
	return r(opt)
}

// ExperimentIDs lists every registered experiment.
func ExperimentIDs() []string { return experiments.IDs() }

// RandomSource returns a deterministic splittable random source for use
// with the lower-level builders (cache.Place etc.).
func RandomSource(seed uint64) xrand.Source { return xrand.NewSource(seed) }
