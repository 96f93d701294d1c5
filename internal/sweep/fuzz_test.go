package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// FuzzParseSpec extends the parser fuzz convention of internal/sim to
// the sweep grid-spec parser. The contract: ParseSpec never panics, and
// every accepted spec is fully usable — Points and Shards succeed, the
// expansion respects the caps, and the hash is well-formed. Parse-time
// caps and the engine's world budget (checked by PointSpec.Config) make
// this safe to fuzz: no accepted input can demand a multi-terabyte world
// or a billion-point grid.
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
		// Axis spelling: heterogeneity knobs, a case variant of a field,
		// null, and a fractional integer.
		`{"trials":1,"base":{"side":6,"k":10,"m":2,"hetero":"capacity"},"axes":[{"field":"profile","values":["two-tier","power-law"]}]}`,
		`{"trials":1,"base":{"side":40,"k":10,"m":2,"miss":"escalate","hetero":"arrival"},"axes":[{"field":"arrival_rate","values":[0.01]}]}`,
		`{"trials":1,"base":{"side":5,"k":10,"m":1},"axes":[{"field":"hetero","values":["capacity","arrival"]}]}`,
		`{"trials":1,"base":{"side":5,"k":10,"m":1},"axes":[{"field":"SIDE","values":[6]}]}`,
		`{"trials":1,"base":{"side":5,"k":10,"m":1},"axes":[{"field":"m","values":[null]}]}`,
		`{"trials":1,"base":{"side":5,"k":10,"m":1,"strategy":"two-choices"},"axes":[{"field":"radius","values":[2.5]}]}`,
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

// FuzzCoordinatorHandler sends fuzzed call sequences to the HTTP handler
// of a two-shard coordinator. Each step is three bytes and a body. op
// picks the endpoint (op%5: lease, renew, complete, fail, status) and the
// body (op/5%6: the raw fuzz bytes, the endpoint's well-formed body, or
// that body spoiled by trailing garbage, an unknown field, a second value
// or another endpoint's body). arg picks the shard or lease a
// well-formed body names, and advances the clock by arg%4 seconds
// against a 5 s lease. n is the raw body's length. The contract: the
// handler never panics; a spoiled body answers 400; a raw body it
// accepts is one JSON document whose top-level keys the endpoint knows;
// a well-formed body is never refused as malformed; and after every step
// /v1/status partitions total and done never decreases. An input runs
// at most maxSteps steps, which bounds the time one execution takes.
func FuzzCoordinatorHandler(f *testing.F) {
	const maxSteps = 64
	spec, err := ParseSpec([]byte(`{"trials":4,"blocks":2,"seed":7,"base":{"side":5,"k":10,"m":1}}`))
	if err != nil {
		f.Fatal(err)
	}
	shards, err := spec.Shards()
	if err != nil {
		f.Fatal(err)
	}
	results := make([]string, len(shards))
	for i, sh := range shards {
		world, err := sim.Compile(sh.Config)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(NewShardResult(sh.Key, world.RunBlock(uint64(sh.Lo), uint64(sh.Hi))))
		if err != nil {
			f.Fatal(err)
		}
		results[i] = string(b)
	}
	endpoints := []struct {
		path    string
		fields  []string
		foreign string
	}{
		{"/v1/lease", []string{"worker"}, `{"key":"k","error":"e"}`},
		{"/v1/renew", []string{"lease"}, `{"worker":"w"}`},
		{"/v1/complete", []string{"key", "agg", "hash"}, `{"key":"k","error":"e"}`},
		{"/v1/fail", []string{"key", "error"}, `{"lease":1}`},
		{"/v1/status", nil, ""},
	}
	step := func(ep, mode, arg byte, raw string) []byte {
		return append([]byte{ep + 5*mode, arg, byte(len(raw))}, raw...)
	}
	f.Add([]byte{})
	for ep := range byte(5) {
		for mode := range byte(6) {
			f.Add(step(ep, mode, 0, `{"worker":"w"}`))
		}
	}
	f.Add(slices.Concat(step(0, 1, 0, ""), step(0, 1, 0, ""), step(2, 1, 0, ""), step(2, 1, 4, ""), step(4, 0, 0, "")))
	f.Add(slices.Concat(step(0, 1, 0, ""), step(3, 1, 0, ""), step(3, 1, 1, ""), step(0, 1, 3, ""), step(1, 1, 3, "")))
	f.Add(slices.Concat(step(0, 1, 0, ""), step(2, 1, 4, ""), step(2, 1, 4, ""), step(3, 1, 4, ""), step(2, 4, 0, "")))
	for _, raw := range []string{`null`, `[]`, `{}`, `{"worker":"w"}{}`, `{"WORKER":"w"}`, `{"lease":-1}`, `{"key":1}`, `{"worker":"w"} `, `{`, "\x00"} {
		for ep := range byte(4) {
			f.Add(step(ep, 0, 0, raw))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		now := time.Unix(1000, 0)
		c, err := NewCoordinator(spec, "", CoordinatorOptions{
			LeaseTTL: 5 * time.Second, MaxAttempts: 2, Now: func() time.Time { return now }})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		h := c.Handler()
		call := func(method, path, body string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			return rec
		}
		leases := []uint64{1}
		done := 0
		for steps := 0; steps < maxSteps && len(data) >= 3; steps++ {
			op, arg, n := data[0], data[1], min(int(data[2]), len(data)-3)
			raw := string(data[3 : 3+n])
			data = data[3+n:]
			now = now.Add(time.Duration(arg%4) * time.Second)
			ep, mode, pick := endpoints[op%5], op/5%6, int(arg/4)
			if ep.fields != nil {
				body := [...]string{
					`{"worker":"w"}`,
					fmt.Sprintf(`{"lease":%d}`, leases[pick%len(leases)]),
					results[pick%len(results)],
					fmt.Sprintf(`{"key":%q,"error":"fuzz"}`, shards[pick%len(shards)].Key),
				}[op%5]
				switch mode {
				case 0:
					body = raw
				case 2:
					body += " trailing garbage"
				case 3:
					body = `{"bogus":1,` + body[1:]
				case 4:
					body += body
				case 5:
					body = ep.foreign
				}
				rec := call(http.MethodPost, ep.path, body)
				code := rec.Code
				switch {
				case mode >= 2 && code != http.StatusBadRequest:
					t.Fatalf("%s spoiled body %q answered %d, want 400", ep.path, body, code)
				case mode == 1 && code == http.StatusBadRequest:
					t.Fatalf("%s well-formed body %q refused: %s", ep.path, body, rec.Body)
				case mode == 0 && code/100 == 2 && !oneKnownDocument(body, ep.fields):
					t.Fatalf("%s accepted %q, which is not one document of its shape", ep.path, body)
				}
				var rep LeaseReply
				if ep.path == "/v1/lease" && code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &rep) == nil && rep.Lease != 0 {
					leases = append(leases, rep.Lease)
				}
			}
			rec := call(http.MethodGet, "/v1/status", "")
			var st Status
			if err := json.Unmarshal(rec.Body.Bytes(), &st); rec.Code != http.StatusOK || err != nil {
				t.Fatalf("status answered %d: %v", rec.Code, err)
			}
			if st.Total != len(shards) || st.Done+st.Leased+st.Pending+st.Failed != st.Total {
				t.Fatalf("status %+v does not partition %d shards", st, len(shards))
			}
			if st.Done < done {
				t.Fatalf("done fell from %d to %d", done, st.Done)
			}
			done = st.Done
		}
	})
}

// oneKnownDocument reports whether body is exactly one JSON value and,
// when that value is an object, every key matches one of fields the way
// encoding/json matches them (case-insensitively).
func oneKnownDocument(body string, fields []string) bool {
	if !json.Valid([]byte(body)) {
		return false
	}
	var obj map[string]json.RawMessage
	if json.Unmarshal([]byte(body), &obj) != nil {
		return true // not an object
	}
	for k := range obj {
		if !slices.ContainsFunc(fields, func(f string) bool { return strings.EqualFold(f, k) }) {
			return false
		}
	}
	return true
}
