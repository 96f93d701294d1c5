package sim

import (
	"testing"

	"repro/internal/core"
)

// churnBaseCfg is the shared fixture for the churn engine tests: big
// enough to cross several pipeline chunks (so the churn phase actually
// runs mid-trial), small enough to stay fast.
func churnBaseCfg() Config {
	return Config{Side: 16, K: 300, M: 3,
		Popularity: PopSpec{Kind: PopZipf, Gamma: 0.9},
		Strategy:   StrategySpec{Kind: TwoChoices, Radius: 4},
		Requests:   4096, Seed: 0x5EED}
}

// TestChurnValidation pins the Config contract: churn modes need a
// positive rate, a rate needs a mode, out-of-range modes are rejected.
func TestChurnValidation(t *testing.T) {
	cfg := churnBaseCfg()
	cfg.Churn = ChurnReplicas
	if _, err := Compile(cfg); err == nil {
		t.Error("churn without rate accepted")
	}
	cfg = churnBaseCfg()
	cfg.ChurnRate = 0.5
	if _, err := Compile(cfg); err == nil {
		t.Error("rate without churn mode accepted")
	}
	cfg = churnBaseCfg()
	cfg.Churn = ChurnMode(99)
	if _, err := Compile(cfg); err == nil {
		t.Error("unknown churn mode accepted")
	}
	cfg = churnBaseCfg()
	cfg.Churn = ChurnDrift
	cfg.ChurnRate = 0.25
	if _, err := Compile(cfg); err != nil {
		t.Errorf("valid churn config rejected: %v", err)
	}
}

// TestChurnDeterminism: identical (cfg, t) pairs must produce identical
// results whether they run through a fresh world, a reused runner, or
// the pooled convenience path — the same contract every other engine
// discipline honours.
func TestChurnDeterminism(t *testing.T) {
	for _, churn := range []ChurnMode{ChurnReplicas, ChurnDrift} {
		for _, strat := range []StrategySpec{{Kind: TwoChoices, Radius: 4}, {Kind: Nearest}} {
			cfg := churnBaseCfg()
			cfg.Churn = churn
			cfg.ChurnRate = 0.4
			cfg.Strategy = strat
			w1, err := Compile(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w2, err := Compile(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reused := w1.NewRunner()
			for trial := uint64(0); trial < 3; trial++ {
				a := reused.RunTrial(trial)
				b := w2.NewRunner().RunTrial(trial)
				c := w2.RunTrial(trial)
				if a != b || a != c {
					t.Fatalf("churn=%v %v t=%d: reused %+v fresh %+v pooled %+v",
						churn, strat.Kind, trial, a, b, c)
				}
				if a.ChurnEvents == 0 {
					t.Fatalf("churn=%v %v t=%d: no churn events applied", churn, strat.Kind, trial)
				}
			}
		}
	}
}

// TestChurnScheduleIndexInvariant: the churn stream is independent of
// the strategy and of the sharded engine — event draws depend only on
// the placement's content and on the order of its replica arena, which
// the index tiling fixes ((tile, node) order under a tiling, node order
// without one). Variants that share one tiling must therefore apply and
// skip exactly the same events, even though their load results differ:
// the base two-choices r = 4 world, the oracle at r = 4 and the sharded
// engine share the r = 4 tiling, and Nearest and two-choices at r = ∞
// build none. Across tilings the same uniform draws index differently
// ordered lists, so only the event count and the law of the schedule
// carry over: every variant schedules the same number of events, and
// ChurnSkipped over 100 trials of a tiled and an untiled world must pass
// a two-sample chi² homogeneity test.
func TestChurnScheduleIndexInvariant(t *testing.T) {
	tilings := [][]func(*Config){
		{
			func(*Config) {},
			func(c *Config) { c.Strategy = StrategySpec{Kind: Oracle, Radius: 4} },
			func(c *Config) { c.Workers = 2 },
		},
		{
			func(c *Config) { c.Strategy = StrategySpec{Kind: Nearest} },
			func(c *Config) { c.Strategy = StrategySpec{Kind: TwoChoices, Radius: core.RadiusUnbounded} },
		},
	}
	for _, churn := range []ChurnMode{ChurnReplicas, ChurnDrift} {
		cfgOf := func(mut func(*Config)) Config {
			cfg := churnBaseCfg()
			cfg.Churn = churn
			cfg.ChurnRate = 0.4
			mut(&cfg)
			return cfg
		}
		scheduled := -1
		for ti, variants := range tilings {
			var ref Result
			for i, mut := range variants {
				res, err := RunTrial(cfgOf(mut), 1)
				if err != nil {
					t.Fatal(err)
				}
				if total := res.ChurnEvents + res.ChurnSkipped; scheduled < 0 {
					scheduled = total
				} else if total != scheduled {
					t.Errorf("churn=%v tiling %d variant %d: %d events scheduled, want %d", churn, ti, i, total, scheduled)
				}
				if i == 0 {
					ref = res
					continue
				}
				if res.ChurnEvents != ref.ChurnEvents || res.ChurnSkipped != ref.ChurnSkipped {
					t.Errorf("churn=%v tiling %d variant %d: schedule (%d,%d) != reference (%d,%d)",
						churn, ti, i, res.ChurnEvents, res.ChurnSkipped, ref.ChurnEvents, ref.ChurnSkipped)
				}
			}
		}
		// The law across tilings, on independent trials of each world.
		const trials = 100
		var skipped [2][]int
		for ti, variants := range tilings {
			w, err := Compile(cfgOf(variants[0]))
			if err != nil {
				t.Fatal(err)
			}
			r := w.NewRunner()
			for trial := range trials {
				skipped[ti] = append(skipped[ti], r.RunTrial(uint64(ti*trials+trial)).ChurnSkipped)
			}
		}
		p := chi2Homogeneity(skipped[0], skipped[1])
		t.Logf("churn=%v: ChurnSkipped tiled vs untiled chi² p=%.3f", churn, p)
		if p < 1e-3 {
			t.Errorf("churn=%v: ChurnSkipped law departs across tilings (chi² p=%.2g)", churn, p)
		}
	}
}

// TestChurnNoneBitIdentity: a Config with Churn spelled out as ChurnNone
// is the same comparable value as the static pins of the golden table,
// so replaying a sample of them documents — and enforces — that the
// churn engine derives and consumes nothing when it is off.
func TestChurnNoneBitIdentity(t *testing.T) {
	for _, p := range everyNth(9, func(c Config) bool { return c.Churn == ChurnNone }) {
		p.cfg.Churn = ChurnNone
		p.cfg.ChurnRate = 0
		got, err := RunTrial(p.cfg, p.trial)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got != p.want {
			t.Errorf("pin %s t=%d diverged under explicit ChurnNone:\n got %+v\nwant %+v",
				p.name, p.trial, got, p.want)
		}
	}
}

// TestChurnMovesLoad sanity-checks that churn actually perturbs the
// measured process relative to the frozen placement: same seed, same
// request streams, different serving geography.
func TestChurnMovesLoad(t *testing.T) {
	frozen := churnBaseCfg()
	churned := churnBaseCfg()
	churned.Churn = ChurnReplicas
	churned.ChurnRate = 2
	a, err := RunTrial(frozen, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrial(churned, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.ChurnEvents == 0 {
		t.Fatal("no churn events at rate 2")
	}
	if a.MaxLoad == b.MaxLoad && a.MeanCost == b.MeanCost {
		t.Fatalf("churn left the trial untouched: %+v vs %+v", a, b)
	}
	if a.Uncached != b.Uncached {
		t.Fatalf("churn changed the cached-file set: %d vs %d uncached", a.Uncached, b.Uncached)
	}
}

// TestChurnSteadyStateAllocs extends the engine's allocation-free
// contract to the churn path: a warmed Runner allocates nothing per
// trial under either churn mode, with and without streaming metrics —
// migrations, swaps, drift ticks and drift-sampler rebuilds included.
func TestChurnSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and disables pool caching")
	}
	for _, variant := range []struct {
		name string
		mut  func(*Config)
	}{
		{"replicas", func(c *Config) { c.Churn = ChurnReplicas; c.ChurnRate = 0.5 }},
		{"drift", func(c *Config) { c.Churn = ChurnDrift; c.ChurnRate = 0.5 }},
		{"replicas-streaming", func(c *Config) {
			c.Churn = ChurnReplicas
			c.ChurnRate = 0.5
			c.Metrics = MetricsStreaming
		}},
	} {
		cfg := paperScaleCfg()
		variant.mut(&cfg)
		w, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := w.NewRunner()
		if res := r.RunTrial(0); res.ChurnEvents == 0 {
			t.Fatalf("%s: warm-up trial applied no churn", variant.name)
		}
		r.RunTrial(1)
		trial := uint64(2)
		if n := testing.AllocsPerRun(3, func() {
			r.RunTrial(trial)
			trial++
		}); n != 0 {
			t.Errorf("%s: steady-state Runner.RunTrial allocates %.1f/op, want 0", variant.name, n)
		}
	}
}

// TestChurnEmptyPlacement: churn over a placement that holds no replica
// — seed 206 starts all four nodes vacant — burns its events as skipped
// instead of drawing from the empty arena, under both churn modes, in
// the batch engine and through the served Snapshot.Advance path. At the
// lower arrival rate no node ever joins; at the higher one a node joins
// at the second barrier, after one empty-arena barrier.
func TestChurnEmptyPlacement(t *testing.T) {
	const accrued = 3 * 512 // ChurnRate 0.5 at the three barriers of 4096 requests
	for _, mode := range []ChurnMode{ChurnReplicas, ChurnDrift} {
		for _, rate := range []float64{0.00001, 0.0005} {
			cfg := Config{Side: 2, K: 10, M: 2, Seed: 206, Requests: 4096,
				Strategy:    StrategySpec{Kind: TwoChoices, Radius: 1},
				MissPolicy:  MissEscalate,
				Churn:       mode,
				ChurnRate:   0.5,
				Hetero:      HeteroArrival,
				ArrivalRate: rate,
			}
			w, err := Compile(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := w.Snapshot(0)
			if s.Placement().ReplicaSlots() != 0 {
				t.Fatalf("mode %v: trial 0 starts with %d replicas; the fixture needs none", mode, s.Placement().ReplicaSlots())
			}
			res, err := RunTrial(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				s.Advance(1024)
			}
			info := s.Info()
			for _, got := range []struct {
				path             string
				events, skipped  int
				arrivals, vacant int
			}{
				{"RunTrial", res.ChurnEvents, res.ChurnSkipped, res.ArrivalEvents, res.Vacant},
				{"Snapshot.Advance", info.ChurnEvents, info.ChurnSkipped, info.ArrivalEvents, info.Vacant},
			} {
				if got.events+got.skipped != accrued {
					t.Errorf("mode %v rate %v %s: %d events + %d skipped, want %d accrued", mode, rate, got.path, got.events, got.skipped, accrued)
				}
				if got.arrivals == 0 && got.events != 0 {
					t.Errorf("mode %v rate %v %s: %d churn events on a placement no node joined", mode, rate, got.path, got.events)
				}
				if wantJoins := rate > 0.0001; (got.arrivals > 0) != wantJoins {
					t.Errorf("mode %v rate %v %s: %d arrivals (%d vacant at end)", mode, rate, got.path, got.arrivals, got.vacant)
				}
			}
		}
	}
}

// TestChurnDriftSeesArrivals: under ChurnDrift with node arrivals, a
// file first cached by a joining node must carry migration mass from
// the barrier it joins at, whether or not the drifter's active set
// changed there. After every barrier each cached file (drift weights
// are at least 1) must have positive mass in the churn file sampler.
func TestChurnDriftSeesArrivals(t *testing.T) {
	cfg := Config{Side: 12, K: 60, M: 2, Seed: 1,
		Popularity: PopSpec{Kind: PopZipf, Gamma: 1},
		Strategy:   StrategySpec{Kind: TwoChoices, Radius: 3},
		MissPolicy: MissEscalate,
		Churn:      ChurnDrift, ChurnRate: 0.5,
		Hetero: HeteroArrival, Profile: ProfilePowerLaw, ArrivalRate: 0.02,
	}
	w, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs, massless, grown := 0, 0, 0
	for era := range uint64(20) {
		s := w.Snapshot(era)
		start := len(s.p.CachedFiles())
		for range 30 {
			s.Advance(64)
			if s.churnSt.driftPop == nil {
				continue
			}
			for _, j := range s.p.CachedFiles() {
				pairs++
				if s.churnSt.driftPop.P(int(j)) == 0 {
					massless++
				}
			}
		}
		grown += len(s.p.CachedFiles()) - start
	}
	if grown == 0 {
		t.Fatal("no arrival cached a new file; the check is vacuous")
	}
	if massless > 0 {
		t.Errorf("%d of %d (barrier, cached file) pairs have no migration mass", massless, pairs)
	}
}
