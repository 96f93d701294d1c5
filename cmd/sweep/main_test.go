package main

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

const testSpec = `{
  "name": "cmdtest",
  "trials": 6,
  "blocks": 3,
  "seed": 5,
  "base": {"side": 6, "k": 20, "m": 2, "strategy": "two-choices"},
  "axes": [{"field": "radius", "values": [2, 3]}]
}`

func writeSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDirectVsChaosRunBitIdentical is the CLI-level acceptance pin: a
// chaos run (worker kills, stalls, duplicate deliveries, coordinator
// 503s) must produce artifacts byte-identical to -mode direct.
func TestDirectVsChaosRunBitIdentical(t *testing.T) {
	spec := writeSpec(t)
	dir := t.TempDir()
	direct := filepath.Join(dir, "direct")
	chaotic := filepath.Join(dir, "chaotic")

	if err := run("direct", spec, "", direct, "off", "", "", 0, 0, nil, 0); err != nil {
		t.Fatalf("direct: %v", err)
	}
	chaos := chaosFor(true, 0.5, 0.3, 0.5, 42)
	chaos.MaxDelay = 10 * time.Millisecond
	if err := run("run", spec, "", chaotic, "", "", "127.0.0.1:0",
		3, 300*time.Millisecond, chaos, 0.2); err != nil {
		t.Fatalf("chaos run: %v", err)
	}

	for _, ext := range []string{".csv", ".json"} {
		want, err := os.ReadFile(direct + ext)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(chaotic + ext)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s artifact differs between chaos run and direct run:\n got: %.200s\nwant: %.200s", ext, got, want)
		}
	}
	// The run left a journal behind for resumability.
	if _, err := os.Stat(chaotic + ".journal"); err != nil {
		t.Errorf("journal missing: %v", err)
	}
}

func TestRunFromPreset(t *testing.T) {
	out := filepath.Join(t.TempDir(), "smoke")
	if err := run("direct", "", "smoke", out, "off", "", "", 0, 0, nil, 0); err != nil {
		t.Fatalf("preset direct: %v", err)
	}
	if _, err := os.Stat(out + ".csv"); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("direct", "", "", "out", "off", "", "", 0, 0, nil, 0); err == nil {
		t.Error("no spec accepted")
	}
	if err := run("direct", "x.json", "smoke", "out", "off", "", "", 0, 0, nil, 0); err == nil {
		t.Error("-spec plus -preset accepted")
	}
	if err := run("work", "", "", "", "", "", "", 0, 0, nil, 0); err == nil {
		t.Error("work mode without -join accepted")
	}
	if err := run("bogus", "", "", "", "", "", "", 0, 0, nil, 0); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run("direct", "", "nope", "out", "off", "", "", 0, 0, nil, 0); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestJournalPathDefaulting(t *testing.T) {
	if got := journalPath("", "out/run"); got != "out/run.journal" {
		t.Errorf("default journal %q", got)
	}
	if got := journalPath("off", "out/run"); got != "" {
		t.Errorf("journal %q, want disabled", got)
	}
	if got := journalPath("/tmp/j", "out/run"); got != "/tmp/j" {
		t.Errorf("journal %q", got)
	}
}

// TestHTTPServerHardened pins the timeout hardening on the work-queue
// server (same contract as cmd/cachesimd): a stuck peer cannot hold a
// connection open forever.
func TestHTTPServerHardened(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("missing deadlines: %+v", srv)
	}
}
