package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// FuzzParseSpec extends the parser fuzz convention of internal/sim to
// the sweep grid-spec parser. The contract: ParseSpec never panics, and
// every accepted spec is fully usable — Points and Shards succeed, the
// expansion respects the caps, and the hash is well-formed. Parse-time
// caps and the engine's world budget (sim.Validate) make this safe to
// fuzz: no accepted input can demand a multi-terabyte world or a
// billion-point grid.
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		// Valid specs.
		`{"trials":2,"base":{"side":5,"k":10,"m":1}}`,
		specJSON,
		`{"trials":1,"seed":1,"base":{"side":3,"k":4,"m":1},"axes":[{"field":"gamma","values":[0.5,0.8]}]}`,
		`{"trials":4,"blocks":2,"base":{"side":4,"k":8,"m":2,"strategy":"two-choices","radius":2,"without_replacement":true}}`,
		// Junk, truncation, type confusion.
		``, `null`, `0`, `[]`, `"spec"`, `{`, `{"trials":`,
		`{"trials":"two","base":{}}`,
		`{"trials":2,"base":{"side":5,"k":10,"m":1}}{"again":true}`,
		// Unicode and control characters.
		string(rune(0)), "日本語", `{"name":"日本語","trials":1,"base":{"side":5,"k":10,"m":1}}`,
		// Deep nesting.
		strings.Repeat(`{"base":`, 100) + strings.Repeat(`}`, 100),
		strings.Repeat(`[`, 1000),
		// Huge axes and out-of-cap values.
		`{"trials":1,"base":{"side":5,"k":10,"m":1},"axes":[{"field":"side","values":[99999999]}]}`,
		`{"trials":1048577,"base":{"side":5,"k":10,"m":1}}`,
		`{"trials":1,"base":{"side":5,"k":16777217,"m":1}}`,
		`{"trials":1,"base":{"side":4096,"k":10,"m":1048576}}`,
		`{"trials":1,"base":{"side":5,"k":10,"m":1},"axes":[{"field":"m","values":[` +
			strings.TrimSuffix(strings.Repeat("1,", 2000), ",") + `]}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		// Accepted specs must be fully usable and inside the caps.
		pts, err := s.Points()
		if err != nil {
			t.Fatalf("accepted spec fails Points: %v", err)
		}
		if len(pts) == 0 || len(pts) > maxPoints {
			t.Fatalf("accepted spec expands to %d points", len(pts))
		}
		shards, err := s.Shards()
		if err != nil {
			t.Fatalf("accepted spec fails Shards: %v", err)
		}
		if len(shards) != len(pts)*s.Blocks {
			t.Fatalf("%d shards for %d points × %d blocks", len(shards), len(pts), s.Blocks)
		}
		if s.Trials < 1 || s.Trials > maxTrials || s.Blocks < 1 || s.Blocks > s.Trials {
			t.Fatalf("accepted spec outside caps: trials=%d blocks=%d", s.Trials, s.Blocks)
		}
		if len(s.Hash()) != 64 {
			t.Fatalf("malformed spec hash %q", s.Hash())
		}
	})
}

// FuzzRecoverJournal replays arbitrary journal bodies written behind a
// matching spec line, a foreign one, or none. The contract: recovery
// never panics; it fails only for a missing or foreign spec record or a
// scanner error (a line past the buffer); every result it returns
// verifies; and dropped lines plus results never exceed the line count.
func FuzzRecoverJournal(f *testing.F) {
	const hash, foreign = "5bec", "f0e1"
	done, err := json.Marshal(journalRecord{T: "done", Res: &ShardResult{}})
	if err != nil {
		f.Fatal(err)
	}
	res := NewShardResult("k1", sim.Aggregate{Trials: 3})
	good, err := json.Marshal(journalRecord{T: "done", Res: &res})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		"",
		string(good) + "\n",
		string(good) + "\n" + string(good[:len(good)/2]),
		string(done) + "\n\n" + `{"t":"spec","hash":"` + hash + `"}`,
		`{"t":"spec","hash":"` + foreign + `"}` + "\n" + string(good),
		strings.Replace(string(good), `"k1"`, `"k2"`, 1) + "\r\n",
		`{"t":"done"}` + "\n" + `{"t":"gone"}` + "\nnull\n[]\n{",
	} {
		for head := range uint8(3) {
			f.Add(head, []byte(s))
		}
	}
	path := filepath.Join(f.TempDir(), "sweep.journal") // rewritten by every input
	f.Fuzz(func(t *testing.T, head uint8, body []byte) {
		var data []byte
		switch head % 3 {
		case 0:
			data = []byte(`{"t":"spec","hash":"` + hash + `"}` + "\n")
		case 1:
			data = []byte(`{"t":"spec","hash":"` + foreign + `"}` + "\n")
		}
		data = append(data, body...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		results, dropped, err := recoverJournal(path, hash)
		if err != nil {
			msg := err.Error()
			if !strings.Contains(msg, "has no spec record") && !strings.Contains(msg, "belongs to spec") &&
				!errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("recovery failed for another reason: %v", err)
			}
			return
		}
		if head%3 == 1 {
			t.Fatal("recovery adopted a journal behind a foreign spec line")
		}
		for i, r := range results {
			if err := r.Verify(); err != nil {
				t.Fatalf("result %d does not verify: %v", i, err)
			}
		}
		if lines := bytes.Count(data, []byte("\n")) + 1; dropped+len(results) > lines {
			t.Fatalf("%d dropped + %d results from %d lines", dropped, len(results), lines)
		}
	})
}
