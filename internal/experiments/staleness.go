package experiments

import (
	"fmt"

	"repro/internal/sim"
)

// stalenessWorkers sweeps the intra-trial shard count P.
var stalenessWorkers = []int{1, 2, 4, 8}

// Staleness probes two-choices allocation quality under stale load
// information — the question the sharded engine's load-visibility
// disciplines make experimentally accessible, and one the
// Pourmiri–Sauerwald–Stafford model (sequential requests, exact loads)
// cannot express. Three visibility regimes bracket each other:
//
//   - sequential (Workers = 0): every request sees the exact live loads
//     — the paper's process and the freshest possible signal;
//   - racy (ShardRacy): P workers share one atomic load vector; a read
//     misses only the adds still in flight on other workers, so
//     staleness grows with P;
//   - frozen (ShardDeterministic): strategies read the snapshot from
//     the last chunk barrier — the worst case, a full chunk of adds
//     invisible regardless of P — so chunk size, not worker count,
//     sets its staleness window.
//
// The x axis is P; one racy series per chunk size (the chunk bounds
// both the barrier cadence and the in-flight window), with the frozen
// and sequential curves as the stale/fresh envelopes. Expected shape:
// max load degrades from the sequential baseline toward the frozen
// ceiling as P and chunk grow, while mean cost stays put — staleness
// perturbs tie-breaking toward the wrong replica, not the replica
// geometry. Racy points are scheduling-dependent (not reproducible
// run-to-run); their means converge with trials like any other noisy
// estimator.
func Staleness(opt Options) (*Table, error) {
	const (
		side   = 25 // n = 625
		k      = 2000
		m      = 4
		radius = 6
		nReq   = 8 * 1024
	)
	trials := opt.trials(6, 400)
	t := &Table{
		ID:     "staleness",
		Title:  "Two choices under stale loads: max load vs shard count (n=625, K=2000, M=4, r=6)",
		XLabel: "intra-trial workers P",
		YLabel: "max load",
		Notes: []string{
			fmt.Sprintf("trials/point = %d; %d requests per trial", trials, nReq),
			"racy: shared atomic load vector, reads unsynchronized with other workers' in-flight adds (staleness grows with P and chunk)",
			"frozen: chunk-barrier snapshot loads (ShardDeterministic) — the worst-case window, P-invariant by construction",
			"sequential: the Workers=0 engine, exact live loads — the paper's process, plotted flat as the fresh baseline",
			"racy points are scheduling-dependent; means converge with trials",
		},
	}
	base := sim.Config{
		Side: side, K: k, M: m,
		Popularity: sim.PopSpec{Kind: sim.PopZipf, Gamma: 0.8},
		Strategy:   sim.StrategySpec{Kind: sim.TwoChoices, Radius: radius},
		Requests:   nReq,
		Seed:       opt.seed(),
	}

	series := []struct {
		name  string
		shard sim.ShardMode
		chunk int
	}{
		{"racy chunk=64", sim.ShardRacy, 64},
		{"racy chunk=256", sim.ShardRacy, 256},
		{"racy chunk=1024", sim.ShardRacy, 1024},
		{"frozen chunk=1024", sim.ShardDeterministic, 1024},
	}
	var cfgs []sim.Config
	for _, s := range series {
		for _, p := range stalenessWorkers {
			cfg := base
			cfg.Workers = p
			cfg.Shard = s.shard
			cfg.Chunk = s.chunk
			cfgs = append(cfgs, cfg)
		}
	}
	seq := base // Workers = 0: the exact-load sequential engine
	cfgs = append(cfgs, seq)

	aggs, err := runGrid(cfgs, trials, opt)
	if err != nil {
		return nil, err
	}
	for i, s := range series {
		sr := Series{Name: s.name}
		for j, p := range stalenessWorkers {
			agg := aggs[i*len(stalenessWorkers)+j]
			sr.Points = append(sr.Points, Point{
				X: float64(p), Y: agg.MaxLoad.Mean(), CI: agg.MaxLoad.CI95(),
				Extra: map[string]float64{"cost": agg.MeanCost.Mean()},
			})
		}
		t.Series = append(t.Series, sr)
	}
	seqAgg := aggs[len(aggs)-1]
	flat := Series{Name: "sequential (exact loads)"}
	for _, p := range stalenessWorkers {
		flat.Points = append(flat.Points, Point{
			X: float64(p), Y: seqAgg.MaxLoad.Mean(), CI: seqAgg.MaxLoad.CI95(),
			Extra: map[string]float64{"cost": seqAgg.MeanCost.Mean()},
		})
	}
	t.Series = append(t.Series, flat)
	return t, nil
}
