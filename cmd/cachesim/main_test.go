package main

import (
	"strings"
	"testing"

	"repro"
)

func TestBuildConfigStrategies(t *testing.T) {
	for name, want := range map[string]repro.StrategySpec{
		"nearest":     {Kind: repro.Nearest},
		"two-choices": {Kind: repro.TwoChoices, Radius: 5, Choices: 2},
		"two":         {Kind: repro.TwoChoices, Radius: 5, Choices: 2},
		"one-choice":  {Kind: repro.OneChoiceRandom, Radius: 5},
		"one":         {Kind: repro.OneChoiceRandom, Radius: 5},
		"oracle":      {Kind: repro.Oracle, Radius: 5},
	} {
		cfg, err := buildConfig(10, "torus", 50, 2, 0, name, 5, 2, 0, "resample", "scalar", "none", 0, "none", 0, 0, "none", "uniform", 0, 0, "deterministic", 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Strategy != want {
			t.Errorf("%s: spec %+v, want %+v", name, cfg.Strategy, want)
		}
	}
}

func TestBuildConfigErrors(t *testing.T) {
	if _, err := buildConfig(10, "torus", 50, 2, 0, "bogus", 5, 2, 0, "resample", "scalar", "none", 0, "none", 0, 0, "none", "uniform", 0, 0, "deterministic", 0, 1); err == nil {
		t.Error("bogus strategy accepted")
	}
	if _, err := buildConfig(10, "torus", 50, 2, 0, "nearest", 5, 2, 0, "bogus", "scalar", "none", 0, "none", 0, 0, "none", "uniform", 0, 0, "deterministic", 0, 1); err == nil {
		t.Error("bogus miss policy accepted")
	}
	if _, err := buildConfig(10, "moebius", 50, 2, 0, "nearest", 5, 2, 0, "resample", "scalar", "none", 0, "none", 0, 0, "none", "uniform", 0, 0, "deterministic", 0, 1); err == nil {
		t.Error("bogus topology accepted")
	}
}

func TestBuildConfigPopularityAndMiss(t *testing.T) {
	cfg, err := buildConfig(10, "grid", 50, 2, 1.5, "nearest", -1, 2, 33, "origin", "streaming", "none", 0, "none", 0, 0, "none", "uniform", 0, 0, "deterministic", 0, 9)
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
		if _, err := buildConfig(10, "torus", 50, 2, 0, "nearest", -1, 2, 0, miss, "scalar", "none", 0, "none", 0, 0, "none", "uniform", 0, 0, "deterministic", 0, 1); err != nil {
			t.Errorf("miss %s rejected: %v", miss, err)
		}
	}
}

func TestBuildConfigMetricsAndStreams(t *testing.T) {
	cfg, err := buildConfig(10, "torus", 50, 2, 0, "two-choices", 4, 2, 0, "resample", "streaming", "none", 0, "none", 0, 0, "none", "uniform", 0, 0, "deterministic", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Metrics != repro.MetricsStreaming {
		t.Errorf("metrics = %v, want streaming", cfg.Metrics)
	}
	if _, err := buildConfig(10, "torus", 50, 2, 0, "nearest", -1, 2, 0, "resample", "bogus", "none", 0, "none", 0, 0, "none", "uniform", 0, 0, "deterministic", 0, 1); err == nil {
		t.Error("bogus metrics mode accepted")
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
	cfg, err := buildConfig(10, "torus", 50, 2, 0, "two-choices", 4, 2, 3000, "resample", "scalar", "replicas", 0.5, "none", 0, 0, "none", "uniform", 0, 0, "deterministic", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Churn != repro.ChurnReplicas || cfg.ChurnRate != 0.5 {
		t.Errorf("churn = %v rate %v, want replicas/0.5", cfg.Churn, cfg.ChurnRate)
	}
	if _, err := buildConfig(10, "torus", 50, 2, 0, "nearest", -1, 2, 0, "resample", "scalar", "bogus", 0.5, "none", 0, 0, "none", "uniform", 0, 0, "deterministic", 0, 1); err == nil {
		t.Error("bogus churn mode accepted")
	}
	// A churn mode without a rate must be rejected at run time.
	bad, err := buildConfig(10, "torus", 50, 2, 0, "nearest", -1, 2, 3000, "resample", "scalar", "drift", 0, "none", 0, 0, "none", "uniform", 0, 0, "deterministic", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.RunTrial(bad, 0); err == nil {
		t.Error("churn without rate ran")
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
	cfg, err := buildConfig(10, "torus", 50, 2, 0, "two-choices", 4, 2, 3000, "escalate", "scalar", "none", 0, "crash", 0.05, 0.02, "none", "uniform", 0, 0, "deterministic", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults != repro.FaultsCrash || cfg.FaultRate != 0.05 || cfg.RecoverRate != 0.02 {
		t.Errorf("faults = %v rates %v/%v, want crash/0.05/0.02", cfg.Faults, cfg.FaultRate, cfg.RecoverRate)
	}
	if _, err := buildConfig(10, "torus", 50, 2, 0, "nearest", -1, 2, 0, "escalate", "scalar", "none", 0, "bogus", 0.05, 0, "none", "uniform", 0, 0, "deterministic", 0, 1); err == nil {
		t.Error("bogus faults mode accepted")
	}
	// A fault mode without a rate must be rejected at run time.
	bad, err := buildConfig(10, "torus", 50, 2, 0, "nearest", -1, 2, 3000, "escalate", "scalar", "none", 0, "regional", 0, 0, "none", "uniform", 0, 0, "deterministic", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.RunTrial(bad, 0); err == nil {
		t.Error("faults without rate ran")
	}
	// So must faults under the resampling miss policy.
	bad, err = buildConfig(10, "torus", 50, 2, 0, "nearest", -1, 2, 3000, "resample", "scalar", "none", 0, "crash", 0.05, 0, "none", "uniform", 0, 0, "deterministic", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.RunTrial(bad, 0); err == nil {
		t.Error("faults with resampling miss policy ran")
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
	cfg, err := buildConfig(10, "torus", 50, 2, 0, "two-choices", 4, 2, 0, "resample", "scalar", "none", 0, "none", 0, 0, "none", "uniform", 0, 4, "racy", 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 4 || cfg.Shard != repro.ShardRacy || cfg.Chunk != 256 {
		t.Errorf("workers/shard/chunk = %d/%v/%d, want 4/racy/256", cfg.Workers, cfg.Shard, cfg.Chunk)
	}
	if _, err := repro.RunTrial(cfg, 0); err != nil {
		t.Fatalf("built sharded config does not run: %v", err)
	}
	if _, err := buildConfig(10, "torus", 50, 2, 0, "nearest", -1, 2, 0, "resample", "scalar", "none", 0, "none", 0, 0, "none", "uniform", 0, 4, "bogus", 0, 1); err == nil {
		t.Error("bogus shard mode accepted")
	}
}

func TestBuildConfigHetero(t *testing.T) {
	cfg, err := buildConfig(10, "torus", 50, 2, 0, "two-choices", 4, 2, 3000, "escalate", "scalar", "none", 0, "none", 0, 0, "arrival", "power-law", 0.01, 0, "deterministic", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Hetero != repro.HeteroArrival || cfg.Profile != repro.ProfilePowerLaw || cfg.ArrivalRate != 0.01 {
		t.Errorf("hetero/profile/rate = %v/%v/%v, want arrival/power-law/0.01", cfg.Hetero, cfg.Profile, cfg.ArrivalRate)
	}
	if _, err := buildConfig(10, "torus", 50, 2, 0, "nearest", -1, 2, 0, "resample", "scalar", "none", 0, "none", 0, 0, "bogus", "uniform", 0, 0, "deterministic", 0, 1); err == nil {
		t.Error("bogus hetero mode accepted")
	}
	if _, err := buildConfig(10, "torus", 50, 2, 0, "nearest", -1, 2, 0, "resample", "scalar", "none", 0, "none", 0, 0, "capacity", "bogus", 0, 0, "deterministic", 0, 1); err == nil {
		t.Error("bogus cache profile accepted")
	}
	// An arrival mode without a rate must be rejected at run time.
	bad, err := buildConfig(10, "torus", 50, 2, 0, "nearest", -1, 2, 3000, "escalate", "scalar", "none", 0, "none", 0, 0, "arrival", "two-tier", 0, 0, "deterministic", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.RunTrial(bad, 0); err == nil {
		t.Error("arrival without rate ran")
	}
	// So must arrivals under the resampling miss policy.
	bad, err = buildConfig(10, "torus", 50, 2, 0, "nearest", -1, 2, 3000, "resample", "scalar", "none", 0, "none", 0, 0, "arrival", "two-tier", 0.01, 0, "deterministic", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.RunTrial(bad, 0); err == nil {
		t.Error("arrivals with resampling miss policy ran")
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
// none of them. buildConfig rejects such a config, naming both numbers
// and both flags, and accepts it once -requests exceeds -chunk.
func TestBuildConfigBarriers(t *testing.T) {
	build := func(requests int, churn string, churnRate float64, faults string, faultRate float64, hetero string, arrivalRate float64, chunk int) (repro.Config, error) {
		return buildConfig(10, "torus", 50, 2, 0, "two-choices", 4, 2, requests, "escalate", "scalar",
			churn, churnRate, faults, faultRate, 0, hetero, "uniform", arrivalRate, 0, "deterministic", chunk, 1)
	}
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
		churnRate, faultRate, arrivalRate := 0.0, 0.0, 0.0
		if tc.churn != "none" {
			churnRate = 0.5
		}
		if tc.faults != "none" {
			faultRate = 0.05
		}
		if tc.het == "arrival" {
			arrivalRate = 0.05
		}
		cfg, err := build(tc.requests, tc.churn, churnRate, tc.faults, faultRate, tc.het, arrivalRate, tc.chunk)
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
