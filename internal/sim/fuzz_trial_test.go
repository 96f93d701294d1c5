package sim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/grid"
	"repro/internal/replication"
)

// fuzzConfig decodes fuzz bytes into a small Config spanning every
// knob: world shape, popularity, placement mode and policy, strategy
// (the oracle and r = ∞ included), miss policy, churn, faults,
// heterogeneity, workers and shard mode, chunk and request count. Bytes
// past the input's end read as 0. Some combinations are invalid on
// purpose (faults or arrivals under MissResample, a chunk off the shard
// granule); Compile must reject those.
func fuzzConfig(data []byte) Config {
	i := 0
	next := func() int {
		b := 0
		if i < len(data) {
			b = int(data[i])
		}
		i++
		return b
	}
	side := 3 + next()%10
	cfg := Config{Side: side}
	b := next()
	cfg.Topology = grid.Topology(b & 1)
	cfg.PlacementMode = cache.Mode(b >> 1 & 1)
	if b>>2&1 != 0 {
		cfg.Popularity = PopSpec{Kind: PopZipf, Gamma: float64(b>>3&7) / 4}
	}
	cfg.PlacementPolicy = replication.Policy(b >> 6 & 3)
	cfg.K = 1 + next()%64
	cfg.M = 1 + next()%4
	b = next()
	cfg.Strategy.Kind = StrategyKind(b % 4)
	cfg.Strategy.Radius = (b>>2)%(side+2) - 1 // -1 is r = ∞
	b = next()
	cfg.Strategy.Choices = b % 5
	cfg.Strategy.Beta = [...]float64{0, 0.25, 0.5, 1}[b>>4&3]
	cfg.MissPolicy = MissPolicy(next() % 3)
	// Mode bytes: the low two bits pick the mode (3 reads as none), the
	// rest its rates.
	if b = next(); b&3%3 != 0 {
		cfg.Churn = ChurnMode(b & 3)
		cfg.ChurnRate = float64(1+b>>2) / 32
	}
	if b = next(); b&3%3 != 0 {
		cfg.Faults = FaultsMode(b & 3)
		cfg.FaultRate = float64(1+b>>2&15) / 512
		cfg.RecoverRate = float64(b>>6) / 512
	}
	if b = next(); b&3%3 != 0 {
		cfg.Hetero = HeteroMode(b & 3)
		cfg.Profile = CacheProfile(b >> 2 & 3 % 3)
		if cfg.Hetero == HeteroArrival {
			cfg.ArrivalRate = float64(1+b>>4) / 256
		}
	}
	b = next()
	cfg.Workers = b % 4
	cfg.Shard = ShardMode(b >> 2 & 1)
	cfg.Chunk = [...]int{0, 64, 128, 256, 7, 100, 1, 33}[b>>3&7]
	cfg.Requests = (next() | next()<<8) % 700
	cfg.Seed = uint64(next() | next()<<8)
	return cfg
}

// FuzzTrial runs one trial of a fuzz-decoded Config. Either validation
// rejects the config, or the trial obeys the engine's invariants over
// the whole configuration space — which is what checks the golden pins'
// values beyond the configurations they freeze:
//
//   - Σ loads = Requests (a backhauled request loads its origin);
//   - MaxLoad ≥ ⌈Requests/n⌉;
//   - MeanCost·Requests ≤ r·(Requests − Escalated) + diameter·Escalated,
//     with r = diameter for Nearest and r = ∞;
//   - Availability ∈ [0, 1];
//   - a rerun, on a fresh or a reused Runner, gives an identical result,
//     in every shard mode;
//   - under ShardDeterministic, P = 1 and P = 3 agree (ShardOwn's result
//     depends on P by design);
//   - with Workers = 0, a snapshot replay (replayTrial) matches.
func FuzzTrial(f *testing.F) {
	// Byte order: side−3, topology|mode<<1|zipf<<2|γ<<3|policy<<6, K−1,
	// M−1, kind|(r+1)<<2, d|β<<4, miss, churn, faults,
	// hetero, workers|shard<<2|chunk<<3, requests (2 bytes), seed (2).
	f.Add([]byte{6, 0, 39, 1, 1 | 3<<2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0})                                  // two-choices r = 2
	f.Add([]byte{6, 4 | 2<<3, 59, 2, 3 | 4<<2, 0, 1, 1 | 8<<2, 1 | 5<<2, 2 | 1<<2, 1 << 3, 0, 2, 2, 0}) // oracle r = 3, churn, crashes, arrivals
	f.Add([]byte{4, 1, 19, 1, 1, 0, 2, 2 | 3<<2, 2 | 2<<2, 0, 2 | 1<<3, 0, 2, 3, 0})                    // r = ∞, drift, regional, P = 2
	f.Add([]byte{9, 2, 62, 2, 2 | 5<<2, 0, 1, 0, 0, 1 | 2<<2, 3 | 2<<3, 0x40, 1, 4, 0})                 // one-choice, power-law, P = 3
	f.Add([]byte{5, 0, 10, 0, 0, 0, 1, 1 | 4<<2, 0, 0, 2 | 1<<2 | 1<<3, 0, 1, 5, 0})                    // nearest, churn, own shards
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := fuzzConfig(data)
		w, err := Compile(cfg)
		if err != nil {
			return
		}
		r := w.NewRunner()
		res := r.RunTrial(0)
		n, req := w.N(), w.Requests()
		if res.Requests != req {
			t.Fatalf("%+v: Requests %d, want %d", cfg, res.Requests, req)
		}
		sum := 0
		for u := range n {
			sum += r.loads.Load(u)
		}
		if sum != req {
			t.Fatalf("%+v: Σ loads %d, want Requests %d (%+v)", cfg, sum, req, res)
		}
		if res.MaxLoad < (req+n-1)/n {
			t.Fatalf("%+v: MaxLoad %d below ⌈%d/%d⌉", cfg, res.MaxLoad, req, n)
		}
		diam := w.g.Diameter()
		radius := cfg.Strategy.Radius
		if cfg.Strategy.Kind == Nearest || radius < 0 {
			radius = diam
		}
		radius = min(radius, diam)
		if hops, bound := res.MeanCost*float64(req), float64(radius*(req-res.Escalated)+diam*res.Escalated); hops > bound+1e-6 {
			t.Fatalf("%+v: hop total %v exceeds r·(R−E)+diam·E = %v (%+v)", cfg, hops, bound, res)
		}
		if !(res.Availability >= 0 && res.Availability <= 1) {
			t.Fatalf("%+v: Availability %v outside [0, 1]", cfg, res.Availability)
		}
		if again := w.NewRunner().RunTrial(0); again != res {
			t.Fatalf("%+v: rerun %+v, first run %+v", cfg, again, res)
		}
		if again := r.RunTrial(0); again != res {
			t.Fatalf("%+v: reused runner %+v, first run %+v", cfg, again, res)
		}
		if cfg.Workers > 0 {
			if cfg.Shard != ShardDeterministic {
				return
			}
			for _, p := range []int{1, 3} {
				c := cfg
				c.Workers = p
				got, err := RunTrial(c, 0)
				if err != nil {
					t.Fatalf("%+v: P=%d rejected: %v", cfg, p, err)
				}
				if got != res {
					t.Fatalf("%+v: P=%d %+v, P=%d %+v", cfg, p, got, cfg.Workers, res)
				}
			}
			return
		}
		got := replayTrial(t, w, 0)
		if got.MaxLoad != res.MaxLoad || got.MeanCost != res.MeanCost ||
			got.Escalated != res.Escalated || got.Backhaul != res.Backhaul ||
			got.Retried != res.Retried || got.Uncached != res.Uncached ||
			got.ChurnEvents != res.ChurnEvents || got.ChurnSkipped != res.ChurnSkipped ||
			got.FaultEvents != res.FaultEvents || got.RecoverEvents != res.RecoverEvents ||
			got.FaultSkipped != res.FaultSkipped || got.DeadNodes != res.DeadNodes {
			t.Fatalf("%+v: snapshot replay %+v, trial %+v", cfg, got, res)
		}
	})
}
