package main

import (
	"testing"

	"repro"
)

// TestBuildConfig checks the flag translation and the rejection of
// unknown enum values.
func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig(32, "torus", 2000, 4, 0.8, "two-choices", 6, 2,
		0, "escalate", "replicas", 0.01, "crash", 0.001, 0.001, "none", "uniform", 0, 2017)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Strategy.Kind != repro.TwoChoices || cfg.Strategy.Radius != 6 {
		t.Fatalf("strategy %+v", cfg.Strategy)
	}
	if cfg.Churn != repro.ChurnReplicas || cfg.Faults != repro.FaultsCrash {
		t.Fatalf("dynamics %v/%v", cfg.Churn, cfg.Faults)
	}
	if _, err := repro.Compile(cfg); err != nil {
		t.Fatalf("config does not compile: %v", err)
	}

	for name, f := range map[string]func() error{
		"strategy": func() error {
			_, err := buildConfig(32, "torus", 100, 4, 0, "best-effort", 6, 2, 0, "resample", "none", 0, "none", 0, 0, "none", "uniform", 0, 1)
			return err
		},
		"topology": func() error {
			_, err := buildConfig(32, "ring", 100, 4, 0, "nearest", 6, 2, 0, "resample", "none", 0, "none", 0, 0, "none", "uniform", 0, 1)
			return err
		},
		"churn": func() error {
			_, err := buildConfig(32, "torus", 100, 4, 0, "nearest", 6, 2, 0, "resample", "sometimes", 0, "none", 0, 0, "none", "uniform", 0, 1)
			return err
		},
	} {
		if f() == nil {
			t.Errorf("%s: bad value accepted", name)
		}
	}
}

// TestNewHTTPServerHardened pins the daemon's connection deadlines: a
// peer that stalls mid-header, trickles a body or never reads its
// response must be cut off, not hold a connection forever.
func TestNewHTTPServerHardened(t *testing.T) {
	srv := newHTTPServer(":9999", nil)
	if srv.Addr != ":9999" {
		t.Fatalf("addr %q", srv.Addr)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("missing connection deadlines: %+v", srv)
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Fatalf("header deadline %v exceeds read deadline %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
}
