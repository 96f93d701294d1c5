package sim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/grid"
)

// enumNames spells one of the engine's enums for flags, sweep specs and
// String: the Go type name that formats an out-of-range value, the noun
// that names the enum in an error, and the names in value order.
type enumNames[T ~int] struct {
	typ, noun string
	names     []string
}

// format returns v's name, or "Type(v)" for a value outside the table.
func (e enumNames[T]) format(v T) string {
	if v >= 0 && int(v) < len(e.names) {
		return e.names[v]
	}
	return fmt.Sprintf("%s(%d)", e.typ, int(v))
}

// parse returns the value named s; "" is the zero value.
func (e enumNames[T]) parse(s string) (T, error) {
	if s == "" {
		return 0, nil
	}
	if i := slices.Index(e.names, s); i >= 0 {
		return T(i), nil
	}
	last := len(e.names) - 1
	return 0, fmt.Errorf("sim: unknown %s %q (want %s or %s)",
		e.noun, s, strings.Join(e.names[:last], ", "), e.names[last])
}

// PointSpec is the flag-level spelling of one configuration: the knobs
// cmd/cachesim and cmd/cachesimd bind their flags to, and one point of
// a sweep spec under its JSON names. Config is the only translation
// from these spellings to a Config. The zero value of every optional
// field selects the engine default; Side, K and M are mandatory. Beta
// has no flag: only sweep specs set it.
type PointSpec struct {
	// Side is the lattice side L (n = L² servers).
	Side int `json:"side"`
	// Topology is "torus" (default) or "grid".
	Topology string `json:"topology,omitempty"`
	// K is the library size.
	K int `json:"k"`
	// M is the per-node cache size.
	M int `json:"m"`
	// Gamma is the Zipf exponent (0 = uniform popularity).
	Gamma float64 `json:"gamma,omitempty"`
	// Strategy is "nearest" (default), "two-choices", "one-choice" or
	// "oracle"; "two" and "one" are aliases.
	Strategy string `json:"strategy,omitempty"`
	// Radius is the proximity radius in hops (-1 = unbounded).
	Radius int `json:"radius,omitempty"`
	// Choices is d for the choice strategies (0 → 2).
	Choices int `json:"choices,omitempty"`
	// Beta selects the (1+β)-choice process for two-choices.
	Beta float64 `json:"beta,omitempty"`
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
	// Hetero is "none" (default), "capacity" or "arrival".
	Hetero string `json:"hetero,omitempty"`
	// Profile is the per-node cache-size profile under a non-none
	// Hetero: "uniform" (default), "two-tier" or "power-law".
	Profile string `json:"profile,omitempty"`
	// ArrivalRate is expected node arrivals per request (Hetero
	// "arrival").
	ArrivalRate float64 `json:"arrival_rate,omitempty"`
	// Workers is the intra-trial shard count P (0 = sequential engine).
	Workers int `json:"workers,omitempty"`
	// Shard is "deterministic" (default) or "racy".
	Shard string `json:"shard,omitempty"`
	// Chunk overrides the pipeline block size (0 = engine default).
	Chunk int `json:"chunk,omitempty"`
}

// Config translates the point into a validated configuration rooted at
// seed. It does not run CheckBarriers, from which served mode is
// exempt; the batch front doors call it on the result.
func (p PointSpec) Config(seed uint64) (Config, error) {
	tp, errTopo := grid.ParseTopology(cmp.Or(p.Topology, "torus"))
	mp, errMiss := missNames.parse(p.Miss)
	mm, errMetrics := metricsNames.parse(p.Metrics)
	ch, errChurn := churnNames.parse(p.Churn)
	fm, errFaults := faultsNames.parse(p.Faults)
	hm, errHetero := heteroNames.parse(p.Hetero)
	pf, errProfile := profileNames.parse(p.Profile)
	sh, errShard := shardNames.parse(p.Shard)
	if err := errors.Join(errTopo, errMiss, errMetrics, errChurn, errFaults, errHetero, errProfile, errShard); err != nil {
		return Config{}, err
	}
	cfg := Config{
		Side: p.Side, Topology: tp, K: p.K, M: p.M,
		Requests: p.Requests, MissPolicy: mp, Metrics: mm,
		Churn: ch, ChurnRate: p.ChurnRate,
		Faults: fm, FaultRate: p.FaultRate, RecoverRate: p.RecoverRate,
		Hetero: hm, Profile: pf, ArrivalRate: p.ArrivalRate,
		Workers: p.Workers, Shard: sh, Chunk: p.Chunk,
		Seed: seed,
	}
	if p.Gamma > 0 {
		cfg.Popularity = PopSpec{Kind: PopZipf, Gamma: p.Gamma}
	}
	switch p.Strategy {
	case "nearest", "":
		cfg.Strategy = StrategySpec{Kind: Nearest}
	case "two-choices", "two":
		cfg.Strategy = StrategySpec{Kind: TwoChoices, Radius: p.Radius, Choices: p.Choices, Beta: p.Beta}
	case "one-choice", "one":
		cfg.Strategy = StrategySpec{Kind: OneChoiceRandom, Radius: p.Radius}
	case "oracle":
		cfg.Strategy = StrategySpec{Kind: Oracle, Radius: p.Radius}
	default:
		return Config{}, fmt.Errorf("sim: unknown strategy %q", p.Strategy)
	}
	return cfg, cfg.validate()
}
