package experiments

import (
	"fmt"
	"sort"

	"repro/internal/sweep"
)

// sweepSpecs holds the paper's headline parameter studies as declarative
// sweep grid specs for cmd/sweep -preset: the same (Config, trial)
// schedule the experiment runners use, but expressed as content-hashed
// shards so a fleet can compute them with crash tolerance and merge
// them bit-identically to a single host.
//
// Specs are kept as JSON (not constructed structs) on purpose: the JSON
// document is the canonical spec content that journals and artifacts
// hash, so what ships here is exactly what a user could put in a file.
var sweepSpecs = map[string]string{
	// smoke is the CI preset: seconds of CPU, exercising both strategy
	// families over a small torus. The sweep-smoke CI job runs it twice —
	// once under chaos, once direct — and diffs the artifacts.
	"smoke": `{
	  "name": "smoke",
	  "trials": 8,
	  "blocks": 4,
	  "seed": 2017,
	  "base": {"side": 10, "k": 100, "m": 2},
	  "axes": [
	    {"field": "strategy", "values": ["nearest", "two-choices"]},
	    {"field": "radius", "values": [2, 4]}
	  ]
	}`,
	// radius reproduces the Figure 2 axis: max-load and cost of the
	// two-choices strategy as the proximity radius r grows.
	"radius": `{
	  "name": "radius",
	  "trials": 200,
	  "blocks": 8,
	  "seed": 2017,
	  "base": {"side": 50, "k": 2500, "m": 4, "strategy": "two-choices"},
	  "axes": [
	    {"field": "radius", "values": [1, 2, 3, 4, 6, 8, 12, 16]}
	  ]
	}`,
	// strategies is the Figure 1 comparison: all four placement
	// strategies across library sizes at fixed cache budget.
	"strategies": `{
	  "name": "strategies",
	  "trials": 200,
	  "blocks": 8,
	  "seed": 2017,
	  "base": {"side": 40, "m": 4, "radius": 4},
	  "axes": [
	    {"field": "strategy", "values": ["nearest", "one-choice", "two-choices", "oracle"]},
	    {"field": "k", "values": [800, 1600, 3200, 6400]}
	  ]
	}`,
	// churn sweeps replica-churn intensity under the robustness
	// extensions, the regime the crash-tolerant orchestration itself is
	// motivated by. Churn acts only between 1024-request pipeline chunks,
	// so the trial runs 8192 requests (the churn experiment's count)
	// rather than n = 900, which would fit in one chunk.
	"churn": `{
	  "name": "churn",
	  "trials": 200,
	  "blocks": 8,
	  "seed": 2017,
	  "base": {"side": 30, "k": 900, "m": 4, "strategy": "two-choices", "radius": 4, "requests": 8192, "churn": "replicas"},
	  "axes": [
	    {"field": "churn_rate", "values": [0.001, 0.01, 0.05, 0.1]}
	  ]
	}`,
}

// SweepIDs returns all sweep preset names, sorted.
func SweepIDs() []string {
	ids := make([]string, 0, len(sweepSpecs))
	for id := range sweepSpecs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// SweepSpec resolves a sweep preset into a parsed, validated spec.
func SweepSpec(id string) (*sweep.Spec, error) {
	src, ok := sweepSpecs[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown sweep preset %q (have %v)", id, SweepIDs())
	}
	return sweep.ParseSpec([]byte(src))
}
