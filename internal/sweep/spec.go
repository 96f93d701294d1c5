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
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"

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

// Axis is one swept dimension: a point-spec field name and the values
// it takes. The grid is the cross product of all axes over the base
// point, expanded in listed order with the last axis fastest.
type Axis struct {
	// Field names the sim.PointSpec knob the axis sweeps by its exact
	// JSON name, e.g. "side", "radius", "churn_rate", "strategy".
	Field string `json:"field"`
	// Values are the swept values; numbers or strings matching the
	// field's type.
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
	Base sim.PointSpec `json:"base"`
	// Axes are the swept dimensions (may be empty: a one-point grid).
	Axes []Axis `json:"axes,omitempty"`
}

// axisFields holds PointSpec's JSON names, the only fields an axis may
// sweep. An axis field must match one exactly: encoding/json alone
// would also match a case variant such as "SIDE".
var axisFields = func() map[string]bool {
	t := reflect.TypeFor[sim.PointSpec]()
	fields := make(map[string]bool, t.NumField())
	for i := range t.NumField() {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		fields[name] = true
	}
	return fields
}()

// setAxis assigns one axis value to p through PointSpec's own JSON
// decoding, which rejects a value of the wrong type and an integer
// field's fractional or out-of-range number. A null would leave the
// field as it was, so it is rejected here.
func setAxis(p *sim.PointSpec, field string, v any) error {
	if v == nil {
		return errors.New("null is not a value")
	}
	b, err := json.Marshal(map[string]any{field: v})
	if err != nil {
		return err
	}
	return json.Unmarshal(b, p)
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
		if !axisFields[ax.Field] {
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
func checkCaps(p sim.PointSpec) error {
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
	Spec sim.PointSpec
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
			if err := setAxis(&p, ax.Field, v); err != nil {
				return nil, fmt.Errorf("sweep: axis %q value %d: %w", ax.Field, idx[a], err)
			}
			if a > 0 {
				label.WriteByte(',')
			}
			fmt.Fprintf(&label, "%s=%s", ax.Field, formatValue(v))
		}
		if err := checkCaps(p); err != nil {
			return nil, fmt.Errorf("sweep: point %d (%s): %w", i, label.String(), err)
		}
		cfg, err := p.Config(s.Seed)
		if err == nil {
			err = sim.CheckBarriers(cfg)
		}
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
	// PointSpec.Config drops a strategy field the point's strategy does
	// not read, so an axis over it would expand to identical points.
	for _, ax := range s.Axes {
		if !slices.ContainsFunc(pts, func(pt Point) bool { return readsField(pt.Config.Strategy.Kind, ax.Field) }) {
			return nil, fmt.Errorf("sweep: axis %q is dead: no point's strategy reads it", ax.Field)
		}
	}
	return pts, nil
}

// readsField reports whether a point running strategy kind reads the
// PointSpec field: radius is read by every strategy but nearest, and
// choices and beta by two-choices only. Every other field is read by
// every point.
func readsField(kind sim.StrategyKind, field string) bool {
	switch field {
	case "radius":
		return kind != sim.Nearest
	case "choices", "beta":
		return kind == sim.TwoChoices
	}
	return true
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
