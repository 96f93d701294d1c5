package main

import (
	"strings"
	"testing"

	"repro"
)

// TestCommandLines pins, field for field, what each cachesimd command
// line of the package comment, the README and CI parses to, so a change
// to a flag's binding, default or translation that moves any field of
// the Config (or of the serving options) fails here.
func TestCommandLines(t *testing.T) {
	two := repro.StrategySpec{Kind: repro.TwoChoices, Radius: 6, Choices: 2}
	zipf := repro.PopSpec{Kind: repro.PopZipf, Gamma: 0.8}
	quiesced := repro.Config{Side: 32, K: 2000, M: 4, Popularity: zipf, Strategy: two, Seed: 2017}
	for _, tc := range []struct {
		line string
		want options
	}{
		{"", options{addr: ":8080", conns: 8, batch: 256,
			cfg: repro.Config{Side: 32, K: 2000, M: 4, Strategy: two, Seed: 2017}}},
		{"-side 32 -k 2000 -m 4 -strategy two-choices -radius 6 -gamma 0.8 -addr :8080",
			options{addr: ":8080", conns: 8, batch: 256, cfg: quiesced}},
		{"-side 32 -k 2000 -m 4 -strategy two-choices -radius 6 -miss escalate -churn replicas -churn-rate 0.01 -faults crash -fault-rate 0.001 -recover-rate 0.001",
			options{addr: ":8080", conns: 8, batch: 256, cfg: repro.Config{Side: 32, K: 2000, M: 4, Strategy: two,
				MissPolicy: repro.MissEscalate, Churn: repro.ChurnReplicas, ChurnRate: 0.01,
				Faults: repro.FaultsCrash, FaultRate: 0.001, RecoverRate: 0.001, Seed: 2017}}},
		{"-side 32 -k 2000 -m 4 -strategy two-choices -radius 6 -gamma 0.8 -loadgen 4000000 -conns 8 -batch 256",
			options{addr: ":8080", loadgen: 4000000, conns: 8, batch: 256, cfg: quiesced}},
		{"-gamma 0.8 -loadgen 4000000",
			options{addr: ":8080", loadgen: 4000000, conns: 8, batch: 256, cfg: quiesced}},
		{"-side 32 -k 2000 -m 4 -strategy two-choices -radius 6 -gamma 0.8 -addr 127.0.0.1:18080",
			options{addr: "127.0.0.1:18080", conns: 8, batch: 256, cfg: quiesced}},
		{"-side 32 -k 2000 -m 4 -strategy two-choices -radius 6 -gamma 0.8 -miss escalate -churn replicas -churn-rate 0.5 -faults crash -fault-rate 0.01 -hetero arrival -profile power-law -arrival-rate 0.01 -addr 127.0.0.1:18081",
			options{addr: "127.0.0.1:18081", conns: 8, batch: 256, cfg: repro.Config{Side: 32, K: 2000, M: 4,
				Popularity: zipf, Strategy: two, MissPolicy: repro.MissEscalate,
				Churn: repro.ChurnReplicas, ChurnRate: 0.5, Faults: repro.FaultsCrash, FaultRate: 0.01,
				Hetero: repro.HeteroArrival, Profile: repro.ProfilePowerLaw, ArrivalRate: 0.01, Seed: 2017}}},
		{"-gamma 0.8 -era 3 -seed 7 -conns 2 -batch 64 -loadgen 100",
			options{era: 3, addr: ":8080", loadgen: 100, conns: 2, batch: 64,
				cfg: repro.Config{Side: 32, K: 2000, M: 4, Popularity: zipf, Strategy: two, Seed: 7}}},
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

// TestBuildConfig checks that the translated config compiles and that
// an unknown strategy, topology or enum value is rejected.
func TestBuildConfig(t *testing.T) {
	o, err := parseArgs(strings.Fields("-miss escalate -churn replicas -churn-rate 0.01 -faults crash -fault-rate 0.001 -recover-rate 0.001"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.Compile(o.cfg); err != nil {
		t.Fatalf("config does not compile: %v", err)
	}
	for _, bad := range []string{"-strategy best-effort", "-topology ring", "-churn sometimes", "-hetero some", "-profile flat", "-miss never", "-faults often"} {
		if _, err := parseArgs(strings.Fields(bad)); err == nil {
			t.Errorf("%s: bad value accepted", bad)
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
