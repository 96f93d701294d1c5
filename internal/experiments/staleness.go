package experiments

import (
	"fmt"

	"repro/internal/sim"
)

// stalenessWorkers sweeps the intra-trial shard count P.
var stalenessWorkers = []int{1, 2, 4, 8}

// Staleness probes two-choices allocation quality under stale load
// information — the question of Mitzenmacher, "How useful is old
// information?" (IEEE TPDS, 2000), which the source paper's model
// (Jafari Siavoshani, Pourmiri and Shariatpanahi, IPDPS 2017: sequential
// requests, exact loads) cannot express. The sharded engine's
// load-visibility disciplines give three regimes that bracket each
// other:
//
//   - sequential (Workers = 0): every request sees the exact live loads
//     — the paper's process and the freshest possible signal;
//   - own (ShardOwn): each of P shards reads the chunk-barrier loads
//     plus its own adds since the barrier, so a request misses the
//     other shards' adds of its chunk — none at P = 1, about (P−1)/P of
//     them at larger P;
//   - frozen (ShardDeterministic): strategies read the snapshot from
//     the last chunk barrier — the worst case, a full chunk of adds
//     invisible regardless of P — so chunk size, not worker count,
//     sets its staleness window.
//
// The x axis is P; one own series per chunk size (the chunk bounds the
// window of unseen adds; at chunk = 64 a chunk is one granule, so one
// shard sees all of it), with the frozen and sequential curves as the
// stale/fresh envelopes. Expected shape: max load degrades from the
// sequential baseline toward the frozen ceiling as P and chunk grow,
// while mean cost stays put — staleness perturbs tie-breaking toward
// the wrong replica, not the replica geometry. Every point is a pure
// function of (config, trial, P).
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
			"own: each shard reads the chunk-barrier loads plus its own adds since (ShardOwn); it misses the other shards' adds, so staleness grows with P and chunk, and chunk=64 (one granule per chunk) sees every add",
			"frozen: chunk-barrier snapshot loads (ShardDeterministic) — the worst-case window, P-invariant by construction",
			"sequential: the Workers=0 engine, exact live loads — the paper's process, plotted flat as the fresh baseline",
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
		{"own chunk=64", sim.ShardOwn, 64},
		{"own chunk=256", sim.ShardOwn, 256},
		{"own chunk=1024", sim.ShardOwn, 1024},
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
