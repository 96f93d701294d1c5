package sim

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ballsbins"
	"repro/internal/core"
)

// heteroArrivalBase is the arrival-regime reference configuration of the
// invariance tests: power-law capacities, ~25% vacant start, 30 joins
// over the trial at the default chunk cadence.
func heteroArrivalBase() Config {
	return Config{
		Side: 12, K: 150, M: 2,
		Strategy:    StrategySpec{Kind: TwoChoices, Radius: 3},
		Requests:    4096,
		MissPolicy:  MissEscalate,
		Hetero:      HeteroArrival,
		Profile:     ProfilePowerLaw,
		ArrivalRate: 0.01,
		Seed:        0x63,
	}
}

// TestHeteroArrivalScheduleInvariance: the arrival schedule lives on the
// dedicated namespace-8 stream, so which nodes start vacant, how many
// join, and how many remain at trial end must be identical whichever
// strategy or worker count the trial runs under — those knobs perturb
// assignment, never the hetero stream.
func TestHeteroArrivalScheduleInvariance(t *testing.T) {
	base := heteroArrivalBase()
	type sched struct{ events, skipped, vacant int }
	want := map[uint64]sched{}
	for trial := uint64(0); trial < 2; trial++ {
		res, err := RunTrial(base, trial)
		if err != nil {
			t.Fatal(err)
		}
		if res.ArrivalEvents == 0 {
			t.Fatalf("t=%d: base config admits no arrivals; invariance test is vacuous", trial)
		}
		want[trial] = sched{res.ArrivalEvents, res.ArrivalSkipped, res.Vacant}
	}
	for _, v := range []struct {
		name string
		mut  func(*Config)
	}{
		{"nearest", func(c *Config) { c.Strategy = StrategySpec{Kind: Nearest} }},
		{"p2", func(c *Config) { c.Workers = 2 }},
		{"p4", func(c *Config) { c.Workers = 4 }},
		{"churn-composed", func(c *Config) { c.Churn = ChurnReplicas; c.ChurnRate = 0.5 }},
		{"faults-composed", func(c *Config) { c.Faults = FaultsCrash; c.FaultRate = 0.02; c.RecoverRate = 0.01 }},
		{"two-tier", func(c *Config) { c.Profile = ProfileTwoTier }},
	} {
		cfg := base
		v.mut(&cfg)
		for trial := uint64(0); trial < 2; trial++ {
			res, err := RunTrial(cfg, trial)
			if err != nil {
				t.Fatalf("%s t=%d: %v", v.name, trial, err)
			}
			got := sched{res.ArrivalEvents, res.ArrivalSkipped, res.Vacant}
			w := want[trial]
			// The profile draw precedes the vacancy coins on one stream, so
			// a different profile may legitimately shift which nodes are
			// vacant — but never the event count, which is pure credit
			// arithmetic.
			if v.name == "two-tier" {
				if got.events+got.skipped != w.events+w.skipped {
					t.Errorf("%s t=%d: scheduled arrivals %d, want %d",
						v.name, trial, got.events+got.skipped, w.events+w.skipped)
				}
				continue
			}
			if got != w {
				t.Errorf("%s t=%d: arrival schedule (events=%d skipped=%d vacant=%d), want (%d %d %d)",
					v.name, trial, got.events, got.skipped, got.vacant, w.events, w.skipped, w.vacant)
			}
		}
	}
}

// TestHeteroShardedWorkerInvariance extends the parallel-equivalence
// property to the heterogeneity regimes: under ShardDeterministic a
// hetero trial's Result — including the arrival counters and the
// capacity-weighted assignment trajectory — is bit-identical across
// every worker count.
func TestHeteroShardedWorkerInvariance(t *testing.T) {
	capacity := Config{
		Side: 12, K: 150, M: 2,
		Strategy: StrategySpec{Kind: TwoChoices, Radius: 3},
		Requests: 4096,
		Hetero:   HeteroCapacity,
		Profile:  ProfileTwoTier,
		Seed:     0x63,
	}
	arrival := heteroArrivalBase()
	churned := arrival
	churned.Churn = ChurnReplicas
	churned.ChurnRate = 0.5
	for _, cfg := range []Config{capacity, arrival, churned} {
		for _, chunk := range []int{64, 0} {
			ref := cfg
			ref.Workers, ref.Chunk = 1, chunk
			wRef, err := Compile(ref)
			if err != nil {
				t.Fatal(err)
			}
			var want [2]Result
			for trial := range want {
				want[trial] = wRef.RunTrial(uint64(trial))
			}
			for _, p := range []int{2, 3, 8} {
				c := cfg
				c.Workers, c.Chunk = p, chunk
				w, err := Compile(c)
				if err != nil {
					t.Fatal(err)
				}
				for trial := range want {
					got := w.RunTrial(uint64(trial))
					if got != want[trial] {
						t.Errorf("%v/%v chunk=%d t=%d: P=%d diverged from P=1\n got %+v\nwant %+v",
							cfg.Hetero, cfg.Profile, chunk, trial, p, got, want[trial])
					}
				}
			}
		}
	}
}

// TestHeteroShardedRacyStress hammers the racy shared-load mode while
// arrivals rebuild the placement and tile index and churn splices it at
// every barrier — the worst-case interleaving surface for the race
// detector tier (the weighted view binds before workers spawn and the
// multiplier vector is read-only during a chunk; anything else would be
// flagged here).
func TestHeteroShardedRacyStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	cfg := Config{
		Side: 16, K: 400, M: 2,
		Popularity:  PopSpec{Kind: PopZipf, Gamma: 1.1},
		Strategy:    StrategySpec{Kind: TwoChoices, Radius: 3},
		Requests:    8192,
		MissPolicy:  MissEscalate,
		Churn:       ChurnReplicas,
		ChurnRate:   0.5,
		Hetero:      HeteroArrival,
		Profile:     ProfilePowerLaw,
		ArrivalRate: 0.02,
		Workers:     8,
		Shard:       ShardRacy,
		Seed:        0x5eed,
	}
	w, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := uint64(0); trial < 3; trial++ {
		res := w.RunTrial(trial)
		if res.Requests != cfg.Requests {
			t.Fatalf("t=%d: Requests = %d, want %d", trial, res.Requests, cfg.Requests)
		}
		if res.ArrivalEvents == 0 {
			t.Fatalf("t=%d: no arrivals under the racy stress; rebuild path not exercised", trial)
		}
	}
}

// TestHeteroWeightedTwoChoicesUniformity: with every raw load zero the
// weighted view ties all candidates regardless of their C_u, and the
// two-choices draw over S_j ∩ B_r(u) must remain uniform — capacity
// weighting biases the comparison, never the sampling. A chi-squared
// statistic over the serving-node histogram of repeated identical
// requests (loads never accumulated) checks the seeded draw against the
// uniform law.
func TestHeteroWeightedTwoChoicesUniformity(t *testing.T) {
	cfg := Config{
		Side: 12, K: 150, M: 2,
		Strategy: StrategySpec{Kind: TwoChoices, Radius: 3},
		Requests: 144,
		Hetero:   HeteroCapacity,
		Profile:  ProfileTwoTier,
		Seed:     0x63,
	}
	w, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot(0)
	if snap.heteroSt.mults == nil {
		t.Fatal("two-tier profile installed no weighted view")
	}
	g := w.Grid()

	// Find a (origin, file) pair whose in-radius replica set is non-trivial
	// and capacity-mixed: uniformity must hold across distinct C_u.
	origin, file := -1, -1
	var support []int32
	for u := 0; u < g.N() && file < 0; u++ {
		for j := 0; j < cfg.K; j++ {
			var cand []int32
			for _, v := range snap.p.Replicas(j) {
				if g.Dist(u, int(v)) <= cfg.Strategy.Radius {
					cand = append(cand, v)
				}
			}
			if len(cand) < 4 || len(cand) > 12 {
				continue
			}
			mixed := false
			for _, v := range cand[1:] {
				if snap.heteroSt.mults[v] != snap.heteroSt.mults[cand[0]] {
					mixed = true
					break
				}
			}
			if mixed {
				origin, file, support = u, j, cand
				break
			}
		}
	}
	if file < 0 {
		t.Fatal("no capacity-mixed support set found; placement shape too degenerate")
	}

	strat := snap.NewStrategy()
	loads := ballsbins.NewLoads(g.N())
	view := snap.WrapLoads(loads)
	rng := rand.New(rand.NewPCG(0xD1CE, 7))
	inSupport := make(map[int32]int, len(support))
	for _, v := range support {
		inSupport[v] = 0
	}
	const draws = 20000
	req := core.Request{Origin: int32(origin), File: int32(file)}
	for i := 0; i < draws; i++ {
		a := strat.Assign(req, view, rng)
		if _, ok := inSupport[a.Server]; !ok {
			t.Fatalf("draw %d served by node %d outside S_j ∩ B_r (support %v)", i, a.Server, support)
		}
		inSupport[a.Server]++
	}
	exp := float64(draws) / float64(len(support))
	chi2 := 0.0
	for _, obs := range inSupport {
		d := float64(obs) - exp
		chi2 += d * d / exp
	}
	// df = |support|-1 ≤ 11; the 99.9th percentile of chi²(11) is 31.3 —
	// a seeded draw landing above that means the sampling is biased, not
	// that the test is unlucky.
	if chi2 > 31.3 {
		t.Errorf("chi² = %.2f over %d support nodes (df=%d); weighted two-choices sampling is not uniform: %v",
			chi2, len(support), len(support)-1, inSupport)
	}
}

// TestHeteroSteadyStateAllocs holds the heterogeneity regimes to the
// engine's allocation-free bar: profile draws, weighted-view rebinds and
// in-place node joins must all run out of the arenas sized at compile
// time. The dynamic row composes arrivals with replica churn and crash
// faults at the rates of perfbench's dynamic workload, so every barrier
// mutation runs in the same trial. The arrival-burst row splices the
// largest batch there is: its rate empties the vacant list at the first
// barrier, so one splice holds every vacant node and later events are
// skipped.
func TestHeteroSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and disables pool caching")
	}
	for _, variant := range []struct {
		name  string
		mut   func(*Config)
		burst bool
	}{
		{"capacity-two-tier", func(c *Config) {
			c.Hetero, c.Profile = HeteroCapacity, ProfileTwoTier
		}, false},
		{"capacity-power-law", func(c *Config) {
			c.Hetero, c.Profile = HeteroCapacity, ProfilePowerLaw
		}, false},
		{"arrival-power-law", func(c *Config) {
			c.Hetero, c.Profile, c.ArrivalRate = HeteroArrival, ProfilePowerLaw, 0.01
			c.MissPolicy = MissEscalate
		}, false},
		{"dynamic", func(c *Config) {
			c.Hetero, c.Profile, c.ArrivalRate = HeteroArrival, ProfilePowerLaw, 0.01
			c.Churn, c.ChurnRate = ChurnReplicas, 0.5
			c.Faults, c.FaultRate, c.RecoverRate = FaultsCrash, 0.01, 0.005
			c.MissPolicy = MissEscalate
		}, false},
		// ~102 events at the first barrier against ~36 vacant nodes.
		{"arrival-burst", func(c *Config) {
			c.Hetero, c.Profile, c.ArrivalRate = HeteroArrival, ProfilePowerLaw, 0.1
			c.MissPolicy = MissEscalate
		}, true},
	} {
		cfg := Config{
			Side: 12, K: 150, M: 2,
			Strategy: StrategySpec{Kind: TwoChoices, Radius: 3},
			Requests: 4096,
			Seed:     0x63,
		}
		variant.mut(&cfg)
		w, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := w.NewRunner()
		res := r.RunTrial(0)
		if cfg.Hetero == HeteroArrival && res.ArrivalEvents == 0 {
			t.Fatalf("%s: no arrivals; the join path is not exercised", variant.name)
		}
		// The first barrier drains ⌊ArrivalRate·defaultChunk⌋ events, so a
		// trial that ends with no vacant node and no more joins than that
		// took them all at once.
		if variant.burst && (res.Vacant != 0 || res.ArrivalSkipped == 0 ||
			res.ArrivalEvents > int(cfg.ArrivalRate*defaultChunk)) {
			t.Fatalf("%s: %d arrivals, %d skipped, %d still vacant; the first barrier did not take every vacant node",
				variant.name, res.ArrivalEvents, res.ArrivalSkipped, res.Vacant)
		}
		if (cfg.Churn != ChurnNone && res.ChurnEvents == 0) || (cfg.Faults != FaultsNone && res.FaultEvents == 0) {
			t.Fatalf("%s: churn or faults never ran (%d churn, %d fault events)",
				variant.name, res.ChurnEvents, res.FaultEvents)
		}
		r.RunTrial(1) // second warm-up: buffers at steady-state size
		trial := uint64(2)
		if n := testing.AllocsPerRun(3, func() {
			r.RunTrial(trial)
			trial++
		}); n != 0 {
			t.Errorf("%s: steady-state Runner.RunTrial allocates %.1f/op, want 0", variant.name, n)
		}
	}
}

// TestHeteroDegenerateBitIdentical pins the degenerate-profile identity:
// HeteroCapacity with ProfileUniform draws every M_u = M and every
// C_u = 1, allocates no multiplier vector, and therefore installs no
// weighted view — the engine must reproduce the homogeneous pins of the
// golden table draw for draw, not merely statistically. Any divergence
// means the uniform profile consumed RNG or perturbed the comparison.
func TestHeteroDegenerateBitIdentical(t *testing.T) {
	homogeneous := func(c Config) bool {
		return c.Hetero == HeteroNone && c.Faults == FaultsNone && c.Workers == 0
	}
	for _, p := range everyNth(7, homogeneous) {
		p.cfg.Hetero = HeteroCapacity
		p.cfg.Profile = ProfileUniform
		got, err := RunTrial(p.cfg, p.trial)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got != p.want {
			t.Errorf("pin %s t=%d diverged under degenerate HeteroCapacity:\n got %+v\nwant %+v",
				p.name, p.trial, got, p.want)
		}
	}
}

// TestParetoCapMatchesPow: the cube-root power-law capacity equals the
// inverse-CDF draw int(math.Round(xm·math.Pow(1−x, −1/α))) it replaces,
// on 10⁶ uniform draws per M and on x within a few ulps of every
// rounding boundary k + 1/2 the capacities up to 8M cross, each found by
// bisecting the bits of x (positive floats order like their bits).
func TestParetoCapMatchesPow(t *testing.T) {
	powCap := func(xm, x float64) int { return int(math.Round(xm * math.Pow(1-x, -1/paretoAlpha))) }
	cbrtApart := 0
	for _, m := range []int{1, 2, 3, 10, 64, 1000} {
		xm := float64(m) / 3
		r := rand.New(rand.NewPCG(uint64(m), 0xCB7))
		for i := 0; i < 1_000_000; i++ {
			x := r.Float64()
			if got, want := paretoCap(xm, x), powCap(xm, x); got != want {
				t.Fatalf("M=%d x=%v: capacity %d, math.Pow draw %d", m, x, got, want)
			}
		}
		top := math.Float64bits(math.Nextafter(1, 0))
		for k := int(xm); k <= 8*m; k++ {
			b := float64(k) + 0.5
			if b <= xm {
				continue
			}
			lo, hi := uint64(0), top // xm·(1−x)^(−2/3) < b at lo, ≥ b at hi
			for hi-lo > 1 {
				mid := lo + (hi-lo)/2
				if xm*math.Pow(1-math.Float64frombits(mid), -1/paretoAlpha) >= b {
					hi = mid
				} else {
					lo = mid
				}
			}
			for bits := hi - 8; bits <= hi+8; bits++ {
				x := math.Float64frombits(bits)
				y := 1 - x
				got, want := paretoCap(xm, x), powCap(xm, x)
				if got != want {
					t.Fatalf("M=%d boundary %v x=%v: capacity %d, math.Pow draw %d", m, b, x, got, want)
				}
				if int(math.Round(xm/math.Cbrt(y*y))) != want {
					cbrtApart++
				}
			}
		}
	}
	// The probes sit close enough to the boundaries that the bare cube
	// root rounds apart from math.Pow at some of them: the fallback is
	// what keeps the draws equal there.
	if cbrtApart == 0 {
		t.Fatal("no probe separates the bare cube root from math.Pow; the boundary search is off")
	}
}
