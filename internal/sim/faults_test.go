package sim

import (
	"strings"
	"testing"
)

// faultBase is the shared fault-test configuration: a 144-node torus
// under proximity-aware two choices with crash/recovery pressure heavy
// enough that every rung of the degradation ladder fires.
func faultBase() Config {
	return Config{
		Side: 12, K: 150, M: 2,
		Strategy:   StrategySpec{Kind: TwoChoices, Radius: 3},
		Requests:   4096,
		MissPolicy: MissEscalate,
		Faults:     FaultsCrash, FaultRate: 0.02, RecoverRate: 0.01,
		Seed: 0xfa17,
	}
}

// schedule is the engine-invariant slice of a fault trial: the failure
// trajectory reads only the namespace-7 stream and the liveness state,
// so it cannot depend on how requests are generated, indexed, assigned
// or sharded.
type schedule struct {
	events, recovers, skipped, dead int
}

func scheduleOf(r Result) schedule {
	return schedule{r.FaultEvents, r.RecoverEvents, r.FaultSkipped, r.DeadNodes}
}

// TestFaultScheduleIndexInvariant: the crash/recovery schedule must be
// bit-identical across Strategy (and hence its candidate ladder), miss
// policy, churn and the sharded engine — the fault stream is a seeded
// process of (Seed, trial) alone.
func TestFaultScheduleIndexInvariant(t *testing.T) {
	for _, mode := range []FaultsMode{FaultsCrash, FaultsRegional} {
		ref := faultBase()
		ref.Faults = mode
		base, err := RunTrial(ref, 3)
		if err != nil {
			t.Fatal(err)
		}
		if base.FaultEvents == 0 || base.DeadNodes == 0 {
			t.Fatalf("%v: reference trial saw no faults: %+v", mode, base)
		}
		variants := map[string]func(c *Config){
			"nearest":     func(c *Config) { c.Strategy = StrategySpec{Kind: Nearest} },
			"oracle":      func(c *Config) { c.Strategy = StrategySpec{Kind: Oracle, Radius: 3} },
			"one-choice":  func(c *Config) { c.Strategy = StrategySpec{Kind: OneChoiceRandom, Radius: 3} },
			"workers2":    func(c *Config) { c.Workers = 2 },
			"workers5":    func(c *Config) { c.Workers = 5 },
			"miss-origin": func(c *Config) { c.MissPolicy = MissOrigin },
			"churn":       func(c *Config) { c.Churn = ChurnReplicas; c.ChurnRate = 0.5 },
		}
		for name, mut := range variants {
			cfg := ref
			mut(&cfg)
			got, err := RunTrial(cfg, 3)
			if err != nil {
				t.Fatalf("%v/%s: %v", mode, name, err)
			}
			if scheduleOf(got) != scheduleOf(base) {
				t.Errorf("%v/%s: schedule %+v diverged from reference %+v",
					mode, name, scheduleOf(got), scheduleOf(base))
			}
		}
	}
}

// TestFaultShardedPIndependent: a faulted ShardDeterministic trial is
// bit-identical for every worker count — the mask mutates only at the
// coordinator's barrier, inside the frozen-snapshot discipline.
func TestFaultShardedPIndependent(t *testing.T) {
	for _, mode := range []FaultsMode{FaultsCrash, FaultsRegional} {
		cfg := faultBase()
		cfg.Faults = mode
		cfg.Churn = ChurnReplicas
		cfg.ChurnRate = 0.5
		cfg.Workers = 1
		ref, err := RunTrial(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 3, 4, 8} {
			cfg.Workers = p
			got, err := RunTrial(cfg, 2)
			if err != nil {
				t.Fatalf("%v P=%d: %v", mode, p, err)
			}
			if got != ref {
				t.Errorf("%v P=%d:\n got %+v\nwant %+v", mode, p, got, ref)
			}
		}
	}
}

// TestFaultShardOwnStress drives the own-mode sharded engine under crash
// and regional faults composed with churn: the failure schedule stays
// seeded, the availability accounting must stay coherent, and a fresh
// world reproduces every Result, DeadLoad included. Run under -race,
// this is the proof that barrier-only liveness mutation leaves the
// workers race-free.
func TestFaultShardOwnStress(t *testing.T) {
	for _, mode := range []FaultsMode{FaultsCrash, FaultsRegional} {
		cfg := faultBase()
		cfg.Faults = mode
		cfg.Churn = ChurnReplicas
		cfg.ChurnRate = 0.5
		cfg.Workers = 4
		cfg.Shard = ShardOwn
		w, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for trial := uint64(0); trial < 4; trial++ {
			res := w.RunTrial(trial)
			if !res.Faulted || res.FaultEvents == 0 {
				t.Fatalf("%v t=%d: fault engine did not run: %+v", mode, trial, res)
			}
			if res.Availability < 0 || res.Availability > 1 {
				t.Fatalf("%v t=%d: availability %v out of range", mode, trial, res.Availability)
			}
			if got := float64(res.Requests-res.Backhaul) / float64(res.Requests); res.Availability != got {
				t.Fatalf("%v t=%d: availability %v inconsistent with backhaul %d", mode, trial, res.Availability, res.Backhaul)
			}
			if again := fresh.RunTrial(trial); again != res {
				t.Fatalf("%v t=%d: fresh world %+v, first run %+v", mode, trial, again, res)
			}
		}
	}
}

// TestFaultGracefulDegradation: permanent crashes (no recovery) must
// degrade service smoothly — requests keep completing, the network
// stays partially available, the degraded-path mass is visible in
// Retried, and the unserved remainder lands on backhaul.
func TestFaultGracefulDegradation(t *testing.T) {
	cfg := faultBase()
	cfg.FaultRate = 0.1
	cfg.RecoverRate = 0
	res, err := RunTrial(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Faulted || res.DeadNodes == 0 || res.RecoverEvents != 0 {
		t.Fatalf("implausible no-recovery trial: %+v", res)
	}
	if res.Retried == 0 {
		t.Errorf("no request ever walked the degraded path: %+v", res)
	}
	if res.Availability <= 0 || res.Availability >= 1 {
		t.Errorf("availability %v not strictly inside (0,1) under partial failure", res.Availability)
	}
	if res.DeadLoad == 0 {
		t.Errorf("crashes stranded no load despite %d events", res.FaultEvents)
	}
	// Recovery pressure equal to the crash pressure must strictly improve
	// availability: MTTR-style re-admission is what the ladder degrades
	// gracefully toward.
	cfg.RecoverRate = 0.1
	rec, err := RunTrial(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Availability <= res.Availability {
		t.Errorf("recovery did not improve availability: %v (MTTR) vs %v (permanent)",
			rec.Availability, res.Availability)
	}
}

// TestFaultValidate is the Config.validate table for the fault knobs and
// their interactions with the miss policy.
func TestFaultValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(c *Config)
		want string // substring of the error; "" = valid
	}{
		{"crash-valid", func(c *Config) {}, ""},
		{"regional-valid", func(c *Config) { c.Faults = FaultsRegional }, ""},
		{"zero-recover-valid", func(c *Config) { c.RecoverRate = 0 }, ""},
		{"unknown-mode", func(c *Config) { c.Faults = FaultsMode(9) }, "unknown faults mode"},
		{"negative-mode", func(c *Config) { c.Faults = FaultsMode(-1) }, "unknown faults mode"},
		{"no-rate", func(c *Config) { c.FaultRate = 0 }, "needs a positive FaultRate"},
		{"negative-rate", func(c *Config) { c.FaultRate = -0.5 }, "needs a positive FaultRate"},
		{"rate-without-mode", func(c *Config) { c.Faults = FaultsNone }, "need a faults mode"},
		{"recover-without-mode", func(c *Config) {
			c.Faults = FaultsNone
			c.FaultRate = 0
		}, "need a faults mode"},
		{"negative-recover", func(c *Config) { c.RecoverRate = -1 }, "RecoverRate must be non-negative"},
		{"resample-conflict", func(c *Config) { c.MissPolicy = MissResample }, "MissPolicy=resample"},
		{"regional-resample-conflict", func(c *Config) {
			c.Faults = FaultsRegional
			c.MissPolicy = MissResample
		}, "MissPolicy=resample"},
	}
	for _, tc := range cases {
		cfg := faultBase()
		tc.mut(&cfg)
		err := cfg.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: validate accepted an invalid config", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestFaultSteadyStateAllocs: the masked request loop — liveness checks
// in every sampler, the live-pool retry ladder, the fault scheduler at
// the barrier — allocates nothing at steady state, matching the
// fault-free engine's bar.
func TestFaultSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and disables pool caching")
	}
	for _, variant := range []struct {
		name string
		mut  func(c *Config)
	}{
		{"crash", func(c *Config) {}},
		{"regional", func(c *Config) { c.Faults = FaultsRegional }},
		{"crash/nearest", func(c *Config) { c.Strategy = StrategySpec{Kind: Nearest} }},
	} {
		cfg := faultBase()
		variant.mut(&cfg)
		w, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := w.NewRunner()
		r.RunTrial(0) // warm the scratch (liveBuf, strategy buffers)
		r.RunTrial(1)
		if n := testing.AllocsPerRun(2, func() { r.RunTrial(2) }); n != 0 {
			t.Errorf("%s: faulted trial allocates %.1f/op, want 0", variant.name, n)
		}
	}
}

// TestFaultRegionGeometry pins regionSize: the failure-domain side is
// the largest divisor of the lattice side no larger than side/4, with a
// single-node degenerate floor.
func TestFaultRegionGeometry(t *testing.T) {
	cases := map[int]int{12: 3, 16: 4, 20: 5, 25: 5, 13: 1, 6: 1, 8: 2, 100: 25, 2: 1}
	for side, want := range cases {
		if got := regionSize(side); got != want {
			t.Errorf("regionSize(%d) = %d, want %d", side, got, want)
		}
	}
}

// TestFaultsNoneBitIdentity: a Config with Faults spelled out as
// FaultsNone is the same comparable value as the fault-free pins of the
// golden table, so replaying a sample of them enforces that the fault
// engine never derives the namespace-7 stream or binds a mask when off.
func TestFaultsNoneBitIdentity(t *testing.T) {
	for _, p := range everyNth(9, func(c Config) bool { return c.Faults == FaultsNone }) {
		p.cfg.Faults = FaultsNone
		p.cfg.FaultRate = 0
		p.cfg.RecoverRate = 0
		got, err := RunTrial(p.cfg, p.trial)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got != p.want {
			t.Errorf("pin %s t=%d diverged under explicit FaultsNone:\n got %+v\nwant %+v",
				p.name, p.trial, got, p.want)
		}
	}
}
