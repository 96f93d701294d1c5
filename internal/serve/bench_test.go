package serve

import (
	"math/rand/v2"
	"testing"

	"repro/internal/sim"
)

// benchConfig is the headline serving configuration: a 1024-node torus,
// Zipf popularity, two-choices within radius 6 over the tile index —
// the paper's strategy at a realistic service scale, quiesced so the
// benchmark measures the pure decision path.
func benchConfig() sim.Config {
	return sim.Config{
		Side: 32, K: 2000, M: 4, Seed: 2017,
		Strategy:   sim.StrategySpec{Kind: sim.TwoChoices, Radius: 6},
		Popularity: sim.PopSpec{Kind: sim.PopZipf, Gamma: 0.8},
	}
}

const benchBatch = 256

// benchPairs pre-generates a query ring so the benchmark loop measures
// only the decision path.
func benchPairs(w *sim.World, n int) []Pair {
	rng := rand.New(rand.NewPCG(7, 7))
	pop := w.Config().Popularity.Build(w.Config().K)
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{User: int32(rng.IntN(w.N())), File: int32(pop.Sample(rng))}
	}
	return pairs
}

// BenchmarkServePlace is the ≥10⁶ decisions/s headline: all GOMAXPROCS
// workers place batches of 256 through pooled contexts against one
// published snapshot. One op is one batch; the decisions/s metric is
// the number that matters.
func BenchmarkServePlace(b *testing.B) {
	w, err := sim.Compile(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	e := New(w, 0)
	defer e.Close()
	pairs := benchPairs(w, 1<<16)

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := e.Get()
		defer e.Put(ctx)
		out := make([]Decision, benchBatch)
		off := 0
		for pb.Next() {
			ctx.PlaceBatch(pairs[off:off+benchBatch], out)
			off += benchBatch
			if off+benchBatch > len(pairs) {
				off = 0
			}
		}
	})
	b.StopTimer()
	dec := float64(b.N) * benchBatch
	b.ReportMetric(dec/b.Elapsed().Seconds(), "decisions/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/dec, "ns/decision")
}

// BenchmarkServePlaceSingle is the single-context path with allocation
// accounting: the hot loop must be 0 allocs/op at steady state.
func BenchmarkServePlaceSingle(b *testing.B) {
	w, err := sim.Compile(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	e := New(w, 0)
	defer e.Close()
	pairs := benchPairs(w, 1<<16)
	ctx := e.Get()
	defer e.Put(ctx)
	out := make([]Decision, benchBatch)

	b.ReportAllocs()
	b.ResetTimer()
	off := 0
	for i := 0; i < b.N; i++ {
		ctx.PlaceBatch(pairs[off:off+benchBatch], out)
		off += benchBatch
		if off+benchBatch > len(pairs) {
			off = 0
		}
	}
	b.StopTimer()
	dec := float64(b.N) * benchBatch
	b.ReportMetric(dec/b.Elapsed().Seconds(), "decisions/s")
}

// BenchmarkServePlaceStorm measures the concurrent decision path while
// the mutator applies churn and fault events and republishes snapshots
// between batches — the served dynamic regime.
func BenchmarkServePlaceStorm(b *testing.B) {
	cfg := benchConfig()
	cfg.MissPolicy = sim.MissEscalate
	cfg.Churn = sim.ChurnReplicas
	cfg.ChurnRate = 0.01
	cfg.Faults = sim.FaultsCrash
	cfg.FaultRate = 0.001
	cfg.RecoverRate = 0.001
	w, err := sim.Compile(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e := New(w, 0)
	defer e.Close()
	pairs := benchPairs(w, 1<<16)

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := e.Get()
		defer e.Put(ctx)
		out := make([]Decision, benchBatch)
		off := 0
		for pb.Next() {
			ctx.PlaceBatch(pairs[off:off+benchBatch], out)
			off += benchBatch
			if off+benchBatch > len(pairs) {
				off = 0
			}
		}
	})
	b.StopTimer()
	dec := float64(b.N) * benchBatch
	b.ReportMetric(dec/b.Elapsed().Seconds(), "decisions/s")
}
