// Package sweep is the fleet-scale sweep orchestration layer: it
// expands a declarative grid spec (axes × base point × seeds) into
// deterministically-keyed (Config, trial-block) shards, serves them to
// worker processes over a minimal HTTP work-queue protocol with
// lease-based assignment, and merges the per-shard results into CSV and
// JSON artifacts that are byte-identical to a single-process
// sim.RunSeries run — even when workers crash, stall, double-deliver,
// or the coordinator itself is killed and restarted from its journal.
//
// The robustness model (see docs/sweep.md for the full treatment):
//
//   - shards are content-keyed and idempotent: any shard can be re-run
//     anywhere, and duplicate completions are verified equal and dropped;
//   - leases expire and re-enter the queue, so crashed or stalled
//     workers only delay their shards;
//   - every completion is appended to a fsync'd journal before it is
//     acknowledged, so a restarted coordinator resumes without
//     re-running finished work;
//   - the merge folds block aggregates in the exact partition and order
//     of sim.RunSeries, which is what makes the distributed artifact
//     bit-identical to the single-host one.
package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/grid"
	"repro/internal/sim"
)

// Expansion caps: a spec is a hand-written document, so anything past
// these bounds is a typo (or a fuzzer), not a workload.
const (
	maxAxes       = 8
	maxAxisValues = 1024
	maxPoints     = 1 << 16
	maxTrials     = 1 << 20
	maxBlocks     = 4096
	maxSide       = 4096
	maxK          = 1 << 24
	maxM          = 1 << 20
	maxRequests   = 1 << 30
)

// PointSpec is the flag-level description of one simulated
// configuration — the JSON spelling of the knobs cmd/cachesim exposes.
// The zero value of every optional field selects the engine default;
// Side, K and M are mandatory (in the spec base, after axis
// application).
type PointSpec struct {
	// Side is the lattice side L (n = L² servers).
	Side int `json:"side"`
	// Topology is "torus" (default) or "grid".
	Topology string `json:"topology,omitempty"`
	// K is the library size; M the per-node cache size.
	K int `json:"k"`
	// M is the per-node cache size.
	M int `json:"m"`
	// Gamma is the Zipf exponent (0 = uniform popularity).
	Gamma float64 `json:"gamma,omitempty"`
	// Strategy is "nearest" (default), "two-choices", "one-choice" or
	// "oracle".
	Strategy string `json:"strategy,omitempty"`
	// Radius is the proximity radius in hops (-1 = unbounded).
	Radius int `json:"radius,omitempty"`
	// Choices is d for the choice strategies (0 → 2).
	Choices int `json:"choices,omitempty"`
	// Beta selects the (1+β)-choice process for two-choices.
	Beta float64 `json:"beta,omitempty"`
	// WithoutReplacement samples candidates distinct when possible.
	WithoutReplacement bool `json:"without_replacement,omitempty"`
	// Requests is the request count per trial (0 = n).
	Requests int `json:"requests,omitempty"`
	// Miss is the miss policy: "resample" (default), "escalate", "origin".
	Miss string `json:"miss,omitempty"`
	// Metrics is "scalar" (default), "links" or "streaming".
	Metrics string `json:"metrics,omitempty"`
	// Churn is "none" (default), "replicas" or "drift".
	Churn string `json:"churn,omitempty"`
	// ChurnRate is expected replica migrations per request.
	ChurnRate float64 `json:"churn_rate,omitempty"`
	// Faults is "none" (default), "crash" or "regional".
	Faults string `json:"faults,omitempty"`
	// FaultRate is expected crash events per request.
	FaultRate float64 `json:"fault_rate,omitempty"`
	// RecoverRate is expected recovery events per request.
	RecoverRate float64 `json:"recover_rate,omitempty"`
	// Workers is the intra-trial shard count P (0 = sequential engine).
	Workers int `json:"workers,omitempty"`
	// Shard is "deterministic" (default) or "racy".
	Shard string `json:"shard,omitempty"`
	// Chunk overrides the pipeline block size (0 = engine default).
	Chunk int `json:"chunk,omitempty"`
}

// Config translates the point into a validated engine configuration
// rooted at the given seed.
func (p PointSpec) Config(seed uint64) (sim.Config, error) {
	var cfg sim.Config
	topo := p.Topology
	if topo == "" {
		topo = "torus"
	}
	tp, err := grid.ParseTopology(topo)
	if err != nil {
		return cfg, err
	}
	mp, err := sim.ParseMiss(p.Miss)
	if err != nil {
		return cfg, err
	}
	mm, err := sim.ParseMetricsMode(p.Metrics)
	if err != nil {
		return cfg, err
	}
	ch, err := sim.ParseChurn(p.Churn)
	if err != nil {
		return cfg, err
	}
	fm, err := sim.ParseFaults(p.Faults)
	if err != nil {
		return cfg, err
	}
	sh, err := sim.ParseShard(p.Shard)
	if err != nil {
		return cfg, err
	}
	cfg = sim.Config{
		Side: p.Side, Topology: tp, K: p.K, M: p.M,
		Requests: p.Requests, MissPolicy: mp, Metrics: mm,
		Churn: ch, ChurnRate: p.ChurnRate,
		Faults: fm, FaultRate: p.FaultRate, RecoverRate: p.RecoverRate,
		Workers: p.Workers, Shard: sh, Chunk: p.Chunk,
		Seed: seed,
	}
	if p.Gamma > 0 {
		cfg.Popularity = sim.PopSpec{Kind: sim.PopZipf, Gamma: p.Gamma}
	}
	switch p.Strategy {
	case "nearest", "":
		cfg.Strategy = sim.StrategySpec{Kind: sim.Nearest}
	case "two-choices", "two":
		cfg.Strategy = sim.StrategySpec{
			Kind: sim.TwoChoices, Radius: p.Radius, Choices: p.Choices,
			WithoutReplacement: p.WithoutReplacement, Beta: p.Beta,
		}
	case "one-choice", "one":
		cfg.Strategy = sim.StrategySpec{Kind: sim.OneChoiceRandom, Radius: p.Radius}
	case "oracle":
		cfg.Strategy = sim.StrategySpec{Kind: sim.Oracle, Radius: p.Radius}
	default:
		return cfg, fmt.Errorf("sweep: unknown strategy %q", p.Strategy)
	}
	if err := sim.Validate(cfg); err != nil {
		return cfg, err
	}
	return cfg, sim.CheckBarriers(cfg)
}

// Axis is one swept dimension: a point-spec field name and the values
// it takes. The grid is the cross product of all axes over the base
// point, expanded in listed order with the last axis fastest.
type Axis struct {
	// Field names the PointSpec knob the axis sweeps (JSON spelling,
	// e.g. "side", "radius", "churn_rate", "strategy").
	Field string `json:"field"`
	// Values are the swept values; numbers, strings or booleans
	// matching the field's type.
	Values []any `json:"values"`
}

// Spec is a declarative sweep grid: a base point, the axes swept over
// it, and the trial schedule. ParseSpec is the only constructor that
// guarantees a valid, normalized spec.
type Spec struct {
	// Name labels the sweep (artifact metadata; default "sweep").
	Name string `json:"name"`
	// Trials is the number of independent trials per grid point.
	Trials int `json:"trials"`
	// Blocks is the number of trial blocks (shards) each point is split
	// into — the unit of distribution AND the merge partition, so it is
	// part of the reproducible result identity: a sweep at B blocks is
	// bit-identical to sim.RunSeries(cfgs, trials, B). 0 defaults to
	// min(trials, 8).
	Blocks int `json:"blocks,omitempty"`
	// Seed roots all randomness (0 defaults to 2017).
	Seed uint64 `json:"seed,omitempty"`
	// Base is the grid origin every axis assignment is applied to.
	Base PointSpec `json:"base"`
	// Axes are the swept dimensions (may be empty: a one-point grid).
	Axes []Axis `json:"axes,omitempty"`
}

// setters maps axis field names to their PointSpec assignment.
var setters = map[string]func(*PointSpec, any) error{
	"side":                func(p *PointSpec, v any) (err error) { p.Side, err = asInt(v); return },
	"topology":            func(p *PointSpec, v any) (err error) { p.Topology, err = asString(v); return },
	"k":                   func(p *PointSpec, v any) (err error) { p.K, err = asInt(v); return },
	"m":                   func(p *PointSpec, v any) (err error) { p.M, err = asInt(v); return },
	"gamma":               func(p *PointSpec, v any) (err error) { p.Gamma, err = asFloat(v); return },
	"strategy":            func(p *PointSpec, v any) (err error) { p.Strategy, err = asString(v); return },
	"radius":              func(p *PointSpec, v any) (err error) { p.Radius, err = asInt(v); return },
	"choices":             func(p *PointSpec, v any) (err error) { p.Choices, err = asInt(v); return },
	"beta":                func(p *PointSpec, v any) (err error) { p.Beta, err = asFloat(v); return },
	"without_replacement": func(p *PointSpec, v any) (err error) { p.WithoutReplacement, err = asBool(v); return },
	"requests":            func(p *PointSpec, v any) (err error) { p.Requests, err = asInt(v); return },
	"miss":                func(p *PointSpec, v any) (err error) { p.Miss, err = asString(v); return },
	"metrics":             func(p *PointSpec, v any) (err error) { p.Metrics, err = asString(v); return },
	"churn":               func(p *PointSpec, v any) (err error) { p.Churn, err = asString(v); return },
	"churn_rate":          func(p *PointSpec, v any) (err error) { p.ChurnRate, err = asFloat(v); return },
	"faults":              func(p *PointSpec, v any) (err error) { p.Faults, err = asString(v); return },
	"fault_rate":          func(p *PointSpec, v any) (err error) { p.FaultRate, err = asFloat(v); return },
	"recover_rate":        func(p *PointSpec, v any) (err error) { p.RecoverRate, err = asFloat(v); return },
	"workers":             func(p *PointSpec, v any) (err error) { p.Workers, err = asInt(v); return },
	"shard":               func(p *PointSpec, v any) (err error) { p.Shard, err = asString(v); return },
	"chunk":               func(p *PointSpec, v any) (err error) { p.Chunk, err = asInt(v); return },
}

func asInt(v any) (int, error) {
	f, ok := v.(float64)
	if !ok || f != float64(int(f)) {
		return 0, fmt.Errorf("sweep: %v (%T) is not an integer", v, v)
	}
	return int(f), nil
}

func asFloat(v any) (float64, error) {
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("sweep: %v (%T) is not a number", v, v)
	}
	return f, nil
}

func asString(v any) (string, error) {
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("sweep: %v (%T) is not a string", v, v)
	}
	return s, nil
}

func asBool(v any) (bool, error) {
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("sweep: %v (%T) is not a boolean", v, v)
	}
	return b, nil
}

// ParseSpec decodes, normalizes and validates a JSON sweep spec:
// unknown fields and trailing garbage are rejected, defaults (name,
// seed, blocks) are filled in, expansion caps are enforced, and every
// expanded grid point must produce a valid engine configuration. The
// returned spec is ready for Points, Shards and the coordinator.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sweep: bad spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("sweep: trailing data after spec document")
	}
	if err := s.normalize(); err != nil {
		return nil, err
	}
	if _, err := s.Points(); err != nil {
		return nil, err
	}
	return &s, nil
}

// normalize fills defaults and enforces the structural caps.
func (s *Spec) normalize() error {
	if s.Name == "" {
		s.Name = "sweep"
	}
	if s.Seed == 0 {
		s.Seed = 2017
	}
	if s.Trials <= 0 || s.Trials > maxTrials {
		return fmt.Errorf("sweep: trials must be in [1, %d], got %d", maxTrials, s.Trials)
	}
	if s.Blocks == 0 {
		s.Blocks = min(s.Trials, 8)
	}
	if s.Blocks < 0 || s.Blocks > min(s.Trials, maxBlocks) {
		return fmt.Errorf("sweep: blocks must be in [1, min(trials, %d)], got %d", maxBlocks, s.Blocks)
	}
	if len(s.Axes) > maxAxes {
		return fmt.Errorf("sweep: at most %d axes, got %d", maxAxes, len(s.Axes))
	}
	points := 1
	seen := map[string]bool{}
	for _, ax := range s.Axes {
		if _, ok := setters[ax.Field]; !ok {
			return fmt.Errorf("sweep: unknown axis field %q", ax.Field)
		}
		if seen[ax.Field] {
			return fmt.Errorf("sweep: duplicate axis field %q", ax.Field)
		}
		seen[ax.Field] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("sweep: axis %q has no values", ax.Field)
		}
		if len(ax.Values) > maxAxisValues {
			return fmt.Errorf("sweep: axis %q has %d values (max %d)", ax.Field, len(ax.Values), maxAxisValues)
		}
		points *= len(ax.Values)
		if points > maxPoints {
			return fmt.Errorf("sweep: grid exceeds %d points", maxPoints)
		}
	}
	return nil
}

// checkCaps bounds the numeric knobs of one expanded point so a typo'd
// (or fuzzed) spec cannot demand a multi-terabyte world.
func (p PointSpec) checkCaps() error {
	switch {
	case p.Side < 1 || p.Side > maxSide:
		return fmt.Errorf("sweep: side must be in [1, %d], got %d", maxSide, p.Side)
	case p.K < 1 || p.K > maxK:
		return fmt.Errorf("sweep: k must be in [1, %d], got %d", maxK, p.K)
	case p.M < 1 || p.M > maxM:
		return fmt.Errorf("sweep: m must be in [1, %d], got %d", maxM, p.M)
	case p.Requests < 0 || p.Requests > maxRequests:
		return fmt.Errorf("sweep: requests must be in [0, %d], got %d", maxRequests, p.Requests)
	}
	return nil
}

// Point is one expanded grid point: the resolved point spec, its
// compiled-from configuration and a human-readable axis label.
type Point struct {
	// Index is the point's position in expansion order.
	Index int
	// Label lists the point's axis assignments ("side=20,radius=4"),
	// or "base" for an axis-free spec.
	Label string
	// Spec is the base point with this point's axis values applied.
	Spec PointSpec
	// Config is the validated engine configuration.
	Config sim.Config
}

// formatValue renders one axis value for labels (shortest float form,
// so labels are deterministic across hosts).
func formatValue(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// Points expands the grid in deterministic order: axes as listed, last
// axis fastest (row-major). Every point is validated (caps + engine
// configuration).
func (s *Spec) Points() ([]Point, error) {
	total := 1
	for _, ax := range s.Axes {
		total *= len(ax.Values)
	}
	pts := make([]Point, 0, total)
	idx := make([]int, len(s.Axes))
	for i := 0; i < total; i++ {
		p := s.Base
		var label strings.Builder
		for a, ax := range s.Axes {
			v := ax.Values[idx[a]]
			if err := setters[ax.Field](&p, v); err != nil {
				return nil, fmt.Errorf("sweep: axis %q value %d: %w", ax.Field, idx[a], err)
			}
			if a > 0 {
				label.WriteByte(',')
			}
			fmt.Fprintf(&label, "%s=%s", ax.Field, formatValue(v))
		}
		if err := p.checkCaps(); err != nil {
			return nil, fmt.Errorf("sweep: point %d (%s): %w", i, label.String(), err)
		}
		cfg, err := p.Config(s.Seed)
		if err != nil {
			return nil, fmt.Errorf("sweep: point %d (%s): %w", i, label.String(), err)
		}
		lbl := label.String()
		if lbl == "" {
			lbl = "base"
		}
		pts = append(pts, Point{Index: i, Label: lbl, Spec: p, Config: cfg})
		// Odometer increment, last axis fastest.
		for a := len(s.Axes) - 1; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(s.Axes[a].Values) {
				break
			}
			idx[a] = 0
		}
	}
	return pts, nil
}

// Hash returns the canonical content hash of the normalized spec
// (hex SHA-256 of its canonical JSON). It names the sweep in journals
// and artifacts, so a resumed coordinator can refuse a journal written
// by a different spec.
func (s *Spec) Hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		// A parsed spec re-marshals by construction; anything else is a
		// programming error.
		panic(fmt.Sprintf("sweep: spec does not marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Shard is one leased work unit: the trial block [Lo, Hi) of one grid
// point, content-keyed so completions are idempotent across retries,
// reassignments and coordinator restarts.
type Shard struct {
	// Key is the shard's content hash (see shardKey).
	Key string `json:"key"`
	// Point is the grid-point index the shard belongs to.
	Point int `json:"point"`
	// Block is the shard's block index within the point's partition.
	Block int `json:"block"`
	// Lo is the first trial of the block.
	Lo int `json:"lo"`
	// Hi is one past the last trial of the block.
	Hi int `json:"hi"`
	// Config is the full engine configuration to run.
	Config sim.Config `json:"config"`
}

// shardKey derives the content hash of one (config, block) work unit.
// Hashing the full config JSON (not the spec) makes any shard
// re-runnable standalone: the key pins exactly what must be computed.
func shardKey(specHash string, point, block, lo, hi int, cfg sim.Config) string {
	cb, err := json.Marshal(cfg)
	if err != nil {
		panic(fmt.Sprintf("sweep: config does not marshal: %v", err))
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|", specHash, point, block, lo, hi)
	h.Write(cb)
	return hex.EncodeToString(h.Sum(nil))
}

// Shards expands the spec into its full work list in deterministic
// (point, block) order — the merge order of the final reduction.
func (s *Spec) Shards() ([]Shard, error) {
	pts, err := s.Points()
	if err != nil {
		return nil, err
	}
	hash := s.Hash()
	shards := make([]Shard, 0, len(pts)*s.Blocks)
	for _, p := range pts {
		for b := 0; b < s.Blocks; b++ {
			lo, hi := sim.BlockRange(s.Trials, s.Blocks, b)
			shards = append(shards, Shard{
				Key:   shardKey(hash, p.Index, b, lo, hi, p.Config),
				Point: p.Index, Block: b, Lo: lo, Hi: hi,
				Config: p.Config,
			})
		}
	}
	return shards, nil
}
