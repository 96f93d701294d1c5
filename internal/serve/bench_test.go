package serve

import (
	"encoding/json"
	"math/rand/v2"
	"net/http"
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

// BenchmarkPlaceDecode decodes one 256-pair /v1/place body of the served
// benchmark workload: the request half of the HTTP codec layer.
func BenchmarkPlaceDecode(b *testing.B) {
	_, pairs := servedWorkload(b, benchBatch)
	body := placeBody(b, pairs)
	var d placeDecoder
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if n, err := d.decode(body); err != nil || n != benchBatch {
			b.Fatalf("decoded %d pairs: %v", n, err)
		}
	}
}

// BenchmarkPlaceDecodeFallback decodes the body of BenchmarkPlaceDecode
// with one unknown member added to each pair, which the decoder's fast
// path refuses: what a client that sends anything but json.Marshal's
// shape pays.
func BenchmarkPlaceDecodeFallback(b *testing.B) {
	type taggedPair struct {
		Pair
		Tag int `json:"tag"`
	}
	_, pairs := servedWorkload(b, benchBatch)
	req := struct {
		Pairs []taggedPair `json:"pairs"`
	}{make([]taggedPair, len(pairs))}
	for i, p := range pairs {
		req.Pairs[i].Pair = p
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	var d placeDecoder
	if _, ok := d.fast(body); ok {
		b.Fatal("the body took the fast path")
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if n, err := d.decode(body); err != nil || n != benchBatch || d.pairs[n-1] != pairs[n-1] {
			b.Fatalf("decoded %d pairs: %v", n, err)
		}
	}
}

// BenchmarkPlaceEncode encodes the answer to one 256-pair batch of the
// served benchmark workload: the response half of the HTTP codec layer.
func BenchmarkPlaceEncode(b *testing.B) {
	w, pairs := servedWorkload(b, benchBatch)
	e := New(w, servedEra)
	defer e.Close()
	ctx := e.Get()
	ds := make([]Decision, len(pairs))
	st := ctx.PlaceBatch(pairs, ds)
	var out []byte
	b.ReportAllocs()
	for b.Loop() {
		out = appendPlaceResponse(out[:0], st, ds)
	}
	b.SetBytes(int64(len(out)))
}

// BenchmarkHandlePlace runs the whole /v1/place handler on one 256-pair
// body of the served benchmark workload, without a socket: body read,
// decode, range checks, the engine's batch and the encoded answer.
func BenchmarkHandlePlace(b *testing.B) {
	w, pairs := servedWorkload(b, benchBatch)
	e := New(w, servedEra)
	defer e.Close()
	h := newPlaceHarness(NewServer(e), placeBody(b, pairs))
	b.ReportAllocs()
	for b.Loop() {
		if code := h.call(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}
