package main

import (
	"fmt"
	"strings"
	"testing"

	"repro"
)

// parse runs cachesim's front door on one command line.
func parse(line string) (repro.Config, error) {
	o, err := parseArgs(strings.Fields(line))
	return o.cfg, err
}

// TestCommandLines pins, field for field, what each cachesim command
// line of the package comment, the README and CI parses to, so a change
// to a flag's binding, default or translation that moves any field of
// the Config (or of the run options) fails here.
func TestCommandLines(t *testing.T) {
	two := func(radius int) repro.StrategySpec {
		return repro.StrategySpec{Kind: repro.TwoChoices, Radius: radius, Choices: 2}
	}
	for _, tc := range []struct {
		line string
		want options
	}{
		{"", options{trials: 50, cfg: repro.Config{Side: 45, K: 500, M: 10, Strategy: two(-1), Seed: 2017}}},
		{"-side 45 -k 500 -m 10 -strategy two-choices -radius 8 -trials 100",
			options{trials: 100, cfg: repro.Config{Side: 45, K: 500, M: 10, Strategy: two(8), Seed: 2017}}},
		{"-side 45 -k 500 -m 10 -strategy two-choices -radius 8",
			options{trials: 50, cfg: repro.Config{Side: 45, K: 500, M: 10, Strategy: two(8), Seed: 2017}}},
		{"-side 45 -k 2000 -m 1 -strategy nearest -gamma 0.8 -trials 50",
			options{trials: 50, cfg: repro.Config{Side: 45, K: 2000, M: 1,
				Popularity: repro.PopSpec{Kind: repro.PopZipf, Gamma: 0.8},
				Strategy:   repro.StrategySpec{Kind: repro.Nearest}, Seed: 2017}}},
		{"-side 1000 -k 10000 -m 10 -strategy two-choices -radius 8 -metrics streaming -trials 4",
			options{trials: 4, cfg: repro.Config{Side: 1000, K: 10000, M: 10, Strategy: two(8),
				Metrics: repro.MetricsStreaming, Seed: 2017}}},
		{"-side 1000 -k 10000 -m 10 -strategy two-choices -radius 40 -metrics streaming -trials 4",
			options{trials: 4, cfg: repro.Config{Side: 1000, K: 10000, M: 10, Strategy: two(40),
				Metrics: repro.MetricsStreaming, Seed: 2017}}},
		{"-side 25 -k 2000 -m 4 -strategy two-choices -radius 6 -requests 8192 -churn replicas -churn-rate 0.5 -trials 20",
			options{trials: 20, cfg: repro.Config{Side: 25, K: 2000, M: 4, Strategy: two(6), Requests: 8192,
				Churn: repro.ChurnReplicas, ChurnRate: 0.5, Seed: 2017}}},
		{"-side 1000 -k 10000 -m 10 -strategy two-choices -radius 8 -metrics streaming -shard-workers 8 -trials 4",
			options{trials: 4, cfg: repro.Config{Side: 1000, K: 10000, M: 10, Strategy: two(8),
				Metrics: repro.MetricsStreaming, Workers: 8, Seed: 2017}}},
		{"-side 25 -k 2000 -m 4 -strategy two-choices -radius 6 -shard-workers 8 -shard own -chunk 256 -trials 20",
			options{trials: 20, cfg: repro.Config{Side: 25, K: 2000, M: 4, Strategy: two(6),
				Workers: 8, Shard: repro.ShardOwn, Chunk: 256, Seed: 2017}}},
		{"-side 25 -k 2000 -m 4 -strategy two-choices -radius 6 -requests 8192 -miss escalate -faults crash -fault-rate 0.05 -recover-rate 0.02 -trials 20",
			options{trials: 20, cfg: repro.Config{Side: 25, K: 2000, M: 4, Strategy: two(6), Requests: 8192,
				MissPolicy: repro.MissEscalate, Faults: repro.FaultsCrash, FaultRate: 0.05, RecoverRate: 0.02, Seed: 2017}}},
		{"-side 25 -k 2000 -m 4 -strategy two-choices -radius 6 -requests 8192 -hetero capacity -profile two-tier -trials 20",
			options{trials: 20, cfg: repro.Config{Side: 25, K: 2000, M: 4, Strategy: two(6), Requests: 8192,
				Hetero: repro.HeteroCapacity, Profile: repro.ProfileTwoTier, Seed: 2017}}},
		{"-side 25 -k 2000 -m 4 -strategy two-choices -radius 6 -requests 8192 -hetero capacity -profile power-law -trials 20",
			options{trials: 20, cfg: repro.Config{Side: 25, K: 2000, M: 4, Strategy: two(6), Requests: 8192,
				Hetero: repro.HeteroCapacity, Profile: repro.ProfilePowerLaw, Seed: 2017}}},
		{"-side 25 -k 2000 -m 4 -strategy two-choices -radius 6 -requests 8192 -miss escalate -hetero arrival -profile power-law -arrival-rate 0.01 -trials 20",
			options{trials: 20, cfg: repro.Config{Side: 25, K: 2000, M: 4, Strategy: two(6), Requests: 8192,
				MissPolicy: repro.MissEscalate, Hetero: repro.HeteroArrival, Profile: repro.ProfilePowerLaw,
				ArrivalRate: 0.01, Seed: 2017}}},
		{"-side 25 -k 2000 -m 4 -strategy two-choices -radius 6 -requests 8192 -miss escalate -hetero arrival -profile two-tier -arrival-rate 0.02 -trials 20",
			options{trials: 20, cfg: repro.Config{Side: 25, K: 2000, M: 4, Strategy: two(6), Requests: 8192,
				MissPolicy: repro.MissEscalate, Hetero: repro.HeteroArrival, Profile: repro.ProfileTwoTier,
				ArrivalRate: 0.02, Seed: 2017}}},
		{"-side 40 -k 2000 -m 4 -strategy two-choices -radius 8 -trials 5 -hetero capacity -profile power-law",
			options{trials: 5, cfg: repro.Config{Side: 40, K: 2000, M: 4, Strategy: two(8),
				Hetero: repro.HeteroCapacity, Profile: repro.ProfilePowerLaw, Seed: 2017}}},
		{"-side 40 -k 2000 -m 4 -strategy two-choices -radius 8 -trials 5 -miss escalate -hetero arrival -profile power-law -arrival-rate 0.02",
			options{trials: 5, cfg: repro.Config{Side: 40, K: 2000, M: 4, Strategy: two(8),
				MissPolicy: repro.MissEscalate, Hetero: repro.HeteroArrival, Profile: repro.ProfilePowerLaw,
				ArrivalRate: 0.02, Seed: 2017}}},
		{"-side 20 -k 200 -m 5 -topology grid -seed 9 -workers 3 -v",
			options{trials: 50, workers: 3, verbose: true, cfg: repro.Config{Side: 20, Topology: repro.Bounded,
				K: 200, M: 5, Strategy: two(-1), Seed: 9}}},
	} {
		got, err := parseArgs(strings.Fields(tc.line))
		if err != nil {
			t.Errorf("%q: %v", tc.line, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%q:\n got %+v\nwant %+v", tc.line, got, tc.want)
		}
	}
}

func TestBuildConfigStrategies(t *testing.T) {
	for name, want := range map[string]repro.StrategySpec{
		"nearest":     {Kind: repro.Nearest},
		"two-choices": {Kind: repro.TwoChoices, Radius: 5, Choices: 2},
		"two":         {Kind: repro.TwoChoices, Radius: 5, Choices: 2},
		"one-choice":  {Kind: repro.OneChoiceRandom, Radius: 5},
		"one":         {Kind: repro.OneChoiceRandom, Radius: 5},
		"oracle":      {Kind: repro.Oracle, Radius: 5},
	} {
		cfg, err := parse("-side 10 -k 50 -m 2 -radius 5 -seed 1 -strategy " + name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Strategy != want {
			t.Errorf("%s: spec %+v, want %+v", name, cfg.Strategy, want)
		}
	}
}

// TestBuildConfigErrors keeps one rejection row per name-valued flag:
// a bogus value fails translation, and the error quotes it.
func TestBuildConfigErrors(t *testing.T) {
	for _, flag := range []string{"strategy", "topology", "miss", "metrics", "churn", "faults", "hetero", "profile", "shard"} {
		_, err := parse("-side 10 -k 50 -m 2 -" + flag + " bogus")
		if err == nil {
			t.Errorf("bogus -%s accepted", flag)
		} else if !strings.Contains(err.Error(), `"bogus"`) {
			t.Errorf("bogus -%s: error %q does not quote the value", flag, err)
		}
	}
}

func TestBuildConfigPopularityAndMiss(t *testing.T) {
	cfg, err := parse("-side 10 -topology grid -k 50 -m 2 -gamma 1.5 -strategy nearest -requests 33 -miss origin -metrics streaming -seed 9")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Popularity.Kind != repro.PopZipf || cfg.Popularity.Gamma != 1.5 {
		t.Errorf("popularity %+v", cfg.Popularity)
	}
	if cfg.MissPolicy != repro.MissOrigin || cfg.Requests != 33 || cfg.Seed != 9 {
		t.Errorf("cfg %+v", cfg)
	}
	// The produced config must actually run.
	if _, err := repro.RunTrial(cfg, 0); err != nil {
		t.Fatalf("built config does not run: %v", err)
	}
	for _, miss := range []string{"resample", "escalate"} {
		if _, err := parse("-side 10 -k 50 -m 2 -strategy nearest -miss " + miss); err != nil {
			t.Errorf("miss %s rejected: %v", miss, err)
		}
	}
}

func TestBuildConfigMetricsAndStreams(t *testing.T) {
	cfg, err := parse("-side 10 -k 50 -m 2 -radius 4 -metrics streaming -seed 1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Metrics != repro.MetricsStreaming {
		t.Errorf("metrics = %v, want streaming", cfg.Metrics)
	}
	// The streaming config must actually run and report the extras.
	res, err := repro.RunTrial(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.HopMax == 0 || res.LoadP99 == 0 {
		t.Errorf("streaming extras missing: %+v", res)
	}
}

func TestBuildConfigChurn(t *testing.T) {
	cfg, err := parse("-side 10 -k 50 -m 2 -radius 4 -requests 3000 -churn replicas -churn-rate 0.5 -seed 1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Churn != repro.ChurnReplicas || cfg.ChurnRate != 0.5 {
		t.Errorf("churn = %v rate %v, want replicas/0.5", cfg.Churn, cfg.ChurnRate)
	}
	// A churn mode without a rate must be rejected at translation.
	if _, err := parse("-side 10 -k 50 -m 2 -strategy nearest -requests 3000 -churn drift"); err == nil {
		t.Error("churn without rate accepted")
	}
	// The churn config must actually run and report event counters.
	res, err := repro.RunTrial(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChurnEvents == 0 {
		t.Errorf("no churn events: %+v", res)
	}
}

func TestBuildConfigFaults(t *testing.T) {
	cfg, err := parse("-side 10 -k 50 -m 2 -radius 4 -requests 3000 -miss escalate -faults crash -fault-rate 0.05 -recover-rate 0.02 -seed 1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults != repro.FaultsCrash || cfg.FaultRate != 0.05 || cfg.RecoverRate != 0.02 {
		t.Errorf("faults = %v rates %v/%v, want crash/0.05/0.02", cfg.Faults, cfg.FaultRate, cfg.RecoverRate)
	}
	// A fault mode without a rate must be rejected at translation.
	if _, err := parse("-side 10 -k 50 -m 2 -strategy nearest -requests 3000 -miss escalate -faults regional"); err == nil {
		t.Error("faults without rate accepted")
	}
	// So must faults under the resampling miss policy.
	if _, err := parse("-side 10 -k 50 -m 2 -strategy nearest -requests 3000 -faults crash -fault-rate 0.05"); err == nil {
		t.Error("faults with resampling miss policy accepted")
	}
	// The fault config must actually run and report availability.
	res, err := repro.RunTrial(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Faulted || res.FaultEvents == 0 || res.Availability <= 0 || res.Availability > 1 {
		t.Errorf("fault metrics missing: %+v", res)
	}
}

func TestBuildConfigShard(t *testing.T) {
	cfg, err := parse("-side 10 -k 50 -m 2 -radius 4 -shard-workers 4 -shard own -chunk 256 -seed 1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 4 || cfg.Shard != repro.ShardOwn || cfg.Chunk != 256 {
		t.Errorf("workers/shard/chunk = %d/%v/%d, want 4/own/256", cfg.Workers, cfg.Shard, cfg.Chunk)
	}
	if _, err := repro.RunTrial(cfg, 0); err != nil {
		t.Fatalf("built sharded config does not run: %v", err)
	}
	// The retired racy mode is refused by name.
	if _, err := parse("-side 10 -k 50 -m 2 -radius 4 -shard-workers 4 -shard racy -seed 1"); err == nil || !strings.Contains(err.Error(), `"racy"`) {
		t.Errorf("-shard racy: err = %v, want a refusal naming \"racy\"", err)
	}
}

func TestBuildConfigHetero(t *testing.T) {
	cfg, err := parse("-side 10 -k 50 -m 2 -radius 4 -requests 3000 -miss escalate -hetero arrival -profile power-law -arrival-rate 0.01 -seed 1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Hetero != repro.HeteroArrival || cfg.Profile != repro.ProfilePowerLaw || cfg.ArrivalRate != 0.01 {
		t.Errorf("hetero/profile/rate = %v/%v/%v, want arrival/power-law/0.01", cfg.Hetero, cfg.Profile, cfg.ArrivalRate)
	}
	// An arrival mode without a rate must be rejected at translation.
	if _, err := parse("-side 10 -k 50 -m 2 -strategy nearest -requests 3000 -miss escalate -hetero arrival -profile two-tier"); err == nil {
		t.Error("arrival without rate accepted")
	}
	// So must arrivals under the resampling miss policy.
	if _, err := parse("-side 10 -k 50 -m 2 -strategy nearest -requests 3000 -hetero arrival -profile two-tier -arrival-rate 0.01"); err == nil {
		t.Error("arrivals with resampling miss policy accepted")
	}
	// The hetero config must actually run and report arrival counters.
	res, err := repro.RunTrial(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ArrivalEvents == 0 {
		t.Errorf("no arrival events: %+v", res)
	}
}

// TestBuildConfigBarriers: churn, faults and node arrivals act only at
// chunk barriers, so a trial whose requests fit in one chunk would run
// none of them. cachesim rejects such a config, naming both numbers
// and both flags, and accepts it once -requests exceeds -chunk.
func TestBuildConfigBarriers(t *testing.T) {
	for _, tc := range []struct {
		name               string
		requests, chunk    int
		churn, faults, het string
		want               string // error substring, "" for accepted
	}{
		{"churn, n requests", 0, 0, "replicas", "none", "none", "100 requests fit in one 1024-request chunk"},
		{"faults, n requests", 0, 0, "none", "crash", "none", "faults events"},
		{"arrivals, n requests", 0, 0, "none", "none", "arrival", "arrivals events"},
		{"all three", 0, 0, "drift", "crash", "arrival", "churn and faults and arrivals"},
		{"one full chunk", 1024, 0, "replicas", "none", "none", "1024 requests fit in one 1024-request chunk"},
		{"chunk at requests", 0, 100, "replicas", "none", "none", "-chunk"},
		{"two chunks", 1025, 0, "replicas", "none", "none", ""},
		{"smaller chunk", 0, 64, "replicas", "crash", "arrival", ""},
		{"no barrier process", 0, 0, "none", "none", "capacity", ""},
	} {
		line := fmt.Sprintf("-side 10 -k 50 -m 2 -radius 4 -miss escalate -seed 1 -requests %d -chunk %d -churn %s -faults %s -hetero %s",
			tc.requests, tc.chunk, tc.churn, tc.faults, tc.het)
		if tc.churn != "none" {
			line += " -churn-rate 0.5"
		}
		if tc.faults != "none" {
			line += " -fault-rate 0.05"
		}
		if tc.het == "arrival" {
			line += " -arrival-rate 0.05"
		}
		cfg, err := parse(line)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted a trial with no chunk barrier", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), "-requests"):
			t.Errorf("%s: error %q does not name -requests", tc.name, err)
		}
		if tc.want != "" || tc.churn == "none" {
			continue
		}
		res, err := repro.RunTrial(cfg, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.ChurnEvents+res.ChurnSkipped == 0 {
			t.Errorf("%s: accepted, yet no churn event was scheduled: %+v", tc.name, res)
		}
	}
}
