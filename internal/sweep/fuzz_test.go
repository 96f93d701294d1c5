package sweep

import (
	"strings"
	"testing"
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
