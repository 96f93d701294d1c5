package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/sim"
)

// MergeShards folds completed shard results into per-point aggregates.
// The fold visits shards in (point, ascending block) order — the exact
// partition and merge order of sim.RunSeries — so the output is
// bit-identical to sim.RunSeries(cfgs, spec.Trials, spec.Blocks) run in
// a single process, no matter how many workers computed the shards, in
// what order, or how many times. Every result's content hash is
// re-verified; a missing or corrupt shard is an error, never a silent
// gap in the artifact.
func MergeShards(spec *Spec, results map[string]ShardResult) ([]sim.Aggregate, error) {
	shards, err := spec.Shards()
	if err != nil {
		return nil, err
	}
	pts, err := spec.Points()
	if err != nil {
		return nil, err
	}
	out := make([]sim.Aggregate, len(pts))
	for _, sh := range shards {
		res, ok := results[sh.Key]
		if !ok {
			return nil, fmt.Errorf("sweep: shard %.12s (point %d block %d) missing from results", sh.Key, sh.Point, sh.Block)
		}
		if err := res.Verify(); err != nil {
			return nil, err
		}
		out[sh.Point].Merge(res.Agg)
	}
	return out, nil
}

// RunDirect computes the sweep in-process through sim.RunSeries with
// the spec's block partition — the single-host reference every
// distributed run must match byte-for-byte. It is both the golden
// generator for CI and the fallback when no fleet is available.
func RunDirect(spec *Spec) ([]sim.Aggregate, error) {
	pts, err := spec.Points()
	if err != nil {
		return nil, err
	}
	cfgs := make([]sim.Config, len(pts))
	for i, p := range pts {
		cfgs[i] = p.Config
	}
	return sim.RunSeries(cfgs, spec.Trials, spec.Blocks)
}

// ftoa renders a float in its shortest exact form, the formatting rule
// both artifact writers share: equal float64 values produce equal
// bytes, so bit-identical aggregates produce bit-identical artifacts.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// csvHeader is the fixed artifact schema: identity columns, then the
// Definition 1 metrics with their confidence intervals, then the
// robustness/dynamics summaries (zero when the regime is off).
var csvHeader = []string{
	"point", "label", "trials",
	"max_load_mean", "max_load_ci95", "max_load_min", "max_load_max",
	"mean_cost_mean", "mean_cost_ci95",
	"escalated_mean", "backhaul_mean", "uncached_mean",
	"churn_events_mean", "availability_mean", "retried_mean",
}

// WriteCSV emits the merged sweep artifact: one row per grid point in
// expansion order, floats in shortest exact form.
func WriteCSV(w io.Writer, spec *Spec, aggs []sim.Aggregate) error {
	pts, err := spec.Points()
	if err != nil {
		return err
	}
	if len(aggs) != len(pts) {
		return fmt.Errorf("sweep: %d aggregates for %d points", len(aggs), len(pts))
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for i, p := range pts {
		a := aggs[i]
		row := []string{
			strconv.Itoa(p.Index), p.Label, strconv.Itoa(a.Trials),
			ftoa(a.MaxLoad.Mean()), ftoa(a.MaxLoad.CI95()), ftoa(a.MaxLoad.Min()), ftoa(a.MaxLoad.Max()),
			ftoa(a.MeanCost.Mean()), ftoa(a.MeanCost.CI95()),
			ftoa(a.Escalated.Mean()), ftoa(a.Backhaul.Mean()), ftoa(a.Uncached.Mean()),
			ftoa(a.ChurnEvents.Mean()), ftoa(a.Availability.Mean()), ftoa(a.Retried.Mean()),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ArtifactPoint is one grid point of the JSON artifact.
type ArtifactPoint struct {
	// Index and Label identify the point (expansion order, axis
	// assignments).
	Index int `json:"index"`
	// Label lists the point's axis assignments.
	Label string `json:"label"`
	// Spec is the resolved point spec.
	Spec sim.PointSpec `json:"spec"`
	// Agg is the merged aggregate with full streaming moments — exact
	// enough to extend the sweep later without re-running it.
	Agg sim.Aggregate `json:"agg"`
}

// Artifact is the JSON artifact: sweep identity plus every merged
// point. Struct fields only (no maps), so encoding is deterministic.
type Artifact struct {
	// Name and SpecHash identify the sweep.
	Name string `json:"name"`
	// SpecHash is the canonical spec content hash.
	SpecHash string `json:"spec_hash"`
	// Trials and Blocks record the schedule the artifact merged.
	Trials int `json:"trials"`
	// Blocks is the merge partition (part of the result identity).
	Blocks int `json:"blocks"`
	// Seed is the root seed.
	Seed uint64 `json:"seed"`
	// Points holds the merged results in expansion order.
	Points []ArtifactPoint `json:"points"`
}

// WriteJSON emits the merged sweep artifact as deterministic JSON.
func WriteJSON(w io.Writer, spec *Spec, aggs []sim.Aggregate) error {
	pts, err := spec.Points()
	if err != nil {
		return err
	}
	if len(aggs) != len(pts) {
		return fmt.Errorf("sweep: %d aggregates for %d points", len(aggs), len(pts))
	}
	art := Artifact{
		Name: spec.Name, SpecHash: spec.Hash(),
		Trials: spec.Trials, Blocks: spec.Blocks, Seed: spec.Seed,
		Points: make([]ArtifactPoint, len(pts)),
	}
	for i, p := range pts {
		art.Points[i] = ArtifactPoint{Index: p.Index, Label: p.Label, Spec: p.Spec, Agg: aggs[i]}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(art)
}
