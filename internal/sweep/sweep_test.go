package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// tinySpec is a one-point, 4-trial, 2-block spec: 2 shards total.
func tinySpec(t *testing.T) *Spec {
	t.Helper()
	return mustParse(t, `{"trials":4,"blocks":2,"seed":7,"base":{"side":5,"k":10,"m":1}}`)
}

// runShardDirect computes a shard's true result in-process.
func runShardDirect(t *testing.T, sh Shard) ShardResult {
	t.Helper()
	world, err := sim.Compile(sh.Config)
	if err != nil {
		t.Fatal(err)
	}
	return NewShardResult(sh.Key, world.RunBlock(uint64(sh.Lo), uint64(sh.Hi)))
}

func TestCoordinatorLeaseCompleteMerge(t *testing.T) {
	spec := tinySpec(t)
	c, err := NewCoordinator(spec, "", CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; ; i++ {
		rep := c.Lease("w")
		if rep.Done {
			break
		}
		if rep.Shard == nil {
			t.Fatalf("round %d: no shard and not done: %+v", i, rep)
		}
		if dup, err := c.Complete(runShardDirect(t, *rep.Shard)); err != nil || dup {
			t.Fatalf("complete: dup=%v err=%v", dup, err)
		}
	}
	st := c.Status()
	if st.Done != 2 || st.Pending != 0 || st.Leased != 0 || st.Failed != 0 {
		t.Fatalf("status %+v", st)
	}

	got, err := c.Merged()
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunDirect(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged diverges from RunDirect:\n got %+v\nwant %+v", got, want)
	}
}

func TestLeaseExpiryReassigns(t *testing.T) {
	spec := tinySpec(t)
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c, err := NewCoordinator(spec, "", CoordinatorOptions{LeaseTTL: time.Second, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	first := c.Lease("crasher")
	if first.Shard == nil {
		t.Fatal("no shard")
	}
	// Both shards leased: next lease is empty (poll).
	second := c.Lease("crasher")
	if second.Shard == nil {
		t.Fatal("no second shard")
	}
	if rep := c.Lease("other"); rep.Shard != nil || rep.Done {
		t.Fatalf("over-leased: %+v", rep)
	}

	// Renewal holds the lease across the deadline.
	now = now.Add(800 * time.Millisecond)
	if err := c.Renew(first.Lease); err != nil {
		t.Fatal(err)
	}
	now = now.Add(800 * time.Millisecond)
	// first was renewed at t+800ms (deadline t+1.8s): still held at
	// t+1.6s. second expired at t+1s: reassigned.
	rep := c.Lease("other")
	if rep.Shard == nil || rep.Shard.Key != second.Shard.Key {
		t.Fatalf("expected second shard reassigned, got %+v", rep)
	}
	if c.Expiries() != 1 {
		t.Fatalf("expiries = %d, want 1", c.Expiries())
	}
	// The expired lease is gone for renewal.
	if err := c.Renew(second.Lease); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("renew of expired lease: %v", err)
	}

	// The crasher's result is still accepted after expiry (content-keyed,
	// at-least-once): the reassigned worker's copy then counts duplicate.
	res := runShardDirect(t, *second.Shard)
	if dup, err := c.Complete(res); err != nil || dup {
		t.Fatalf("late complete: dup=%v err=%v", dup, err)
	}
	if dup, err := c.Complete(res); err != nil || !dup {
		t.Fatalf("duplicate complete: dup=%v err=%v", dup, err)
	}
	if c.Dupes() != 1 {
		t.Fatalf("dupes = %d, want 1", c.Dupes())
	}
}

func TestCompleteRejectsCorruptAndForeign(t *testing.T) {
	spec := tinySpec(t)
	c, err := NewCoordinator(spec, "", CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	shards, _ := spec.Shards()
	good := runShardDirect(t, shards[0])

	// Unknown key.
	foreign := good
	foreign.Key = strings.Repeat("ab", 32)
	if _, err := c.Complete(foreign); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("foreign key: %v", err)
	}
	// Corrupt payload (hash no longer matches).
	corrupt := good
	corrupt.Agg.Trials++
	if _, err := c.Complete(corrupt); !errors.Is(err, ErrCorruptResult) {
		t.Fatalf("corrupt result: %v", err)
	}
	// Mismatched duplicate: same key, different (self-consistent) agg.
	if _, err := c.Complete(good); err != nil {
		t.Fatal(err)
	}
	other := good
	other.Agg.Trials++
	other.Hash = aggHash(other.Agg)
	if _, err := c.Complete(other); !errors.Is(err, ErrResultMismatch) {
		t.Fatalf("mismatched duplicate: %v", err)
	}
}

func TestFailMaxAttempts(t *testing.T) {
	spec := tinySpec(t)
	c, err := NewCoordinator(spec, "", CoordinatorOptions{MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	shards, _ := spec.Shards()
	key := shards[0].Key

	if err := c.Fail(key, "boom 1"); err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); st.Failed != 0 || st.Pending != 2 {
		t.Fatalf("after 1 failure: %+v", st)
	}
	if err := c.Fail(key, "boom 2"); err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); st.Failed != 1 {
		t.Fatalf("after max failures: %+v", st)
	}

	// Finish the surviving shard; Wait must surface the recorded failure.
	if _, err := c.Complete(runShardDirect(t, shards[1])); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Wait(ctx); err == nil || !strings.Contains(err.Error(), "boom 2") {
		t.Fatalf("Wait = %v, want recorded failure", err)
	}
	// A failed sweep must not merge silently.
	if _, err := c.Merged(); err == nil {
		t.Fatal("merged a sweep with a failed shard")
	}
}

func TestDrainStopsLeasing(t *testing.T) {
	spec := tinySpec(t)
	c, err := NewCoordinator(spec, "", CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first := c.Lease("w")
	if first.Shard == nil {
		t.Fatal("no shard")
	}
	c.Drain()
	if rep := c.Lease("w"); !rep.Draining {
		t.Fatalf("lease during drain: %+v", rep)
	}
	// In-flight completions still land.
	if _, err := c.Complete(runShardDirect(t, *first.Shard)); err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); st.Done != 1 || !st.Draining {
		t.Fatalf("status %+v", st)
	}
	// With the only lease settled, a draining coordinator's Wait returns
	// even though a shard is still pending (it resumes from the journal
	// next invocation) — the property SIGTERM handling depends on.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("Wait after drain: %v", err)
	}
}

func TestJournalRecovery(t *testing.T) {
	spec := tinySpec(t)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	c, err := NewCoordinator(spec, path, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shards, _ := spec.Shards()
	if _, err := c.Complete(runShardDirect(t, shards[0])); err != nil {
		t.Fatal(err)
	}
	c.Close() // "kill" the coordinator

	// Restart: shard 0 must already be done.
	c2, err := NewCoordinator(spec, path, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st := c2.Status(); st.Done != 1 || st.Pending != 1 {
		t.Fatalf("recovered status %+v", st)
	}
	rep := c2.Lease("w")
	if rep.Shard == nil || rep.Shard.Key != shards[1].Key {
		t.Fatalf("recovered coordinator leased %+v, want shard 1", rep)
	}
	if _, err := c2.Complete(runShardDirect(t, *rep.Shard)); err != nil {
		t.Fatal(err)
	}
	got, err := c2.Merged()
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunDirect(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("journal-recovered merge diverges from RunDirect")
	}
}

func TestJournalTornTailDropped(t *testing.T) {
	spec := tinySpec(t)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	c, err := NewCoordinator(spec, path, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shards, _ := spec.Shards()
	if _, err := c.Complete(runShardDirect(t, shards[0])); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Tear the tail: append half a record, as a crash mid-write would.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"t":"done","res":{"key":"beef`)
	f.Close()

	_, recovered, dropped, err := OpenJournal(path, spec.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || dropped != 1 {
		t.Fatalf("recovered %d dropped %d, want 1/1", len(recovered), dropped)
	}
}

// TestCoordinatorReportsDroppedJournalRecords: a journal whose every
// done record fails its hash resumes with no shard done, and the
// coordinator reports each dropped line.
func TestCoordinatorReportsDroppedJournalRecords(t *testing.T) {
	spec := tinySpec(t)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	c, err := NewCoordinator(spec, path, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shards, _ := spec.Shards()
	for _, sh := range shards {
		if _, err := c.Complete(runShardDirect(t, sh)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	tamperJournalHashes(t, path)

	c2, err := NewCoordinator(spec, path, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st := c2.Status(); st.Done != 0 || c2.JournalDropped() != len(shards) {
		t.Fatalf("resumed %d shards, dropped %d lines; want 0 and %d", st.Done, c2.JournalDropped(), len(shards))
	}
}

// TestCoordinatorDropsForeignJournalKeys: a done record that verifies
// but whose key names no shard of the spec — written by a build whose
// sim.Config marshals differently, so every shard key moved — resumes
// nothing and is reported as dropped.
func TestCoordinatorDropsForeignJournalKeys(t *testing.T) {
	spec := tinySpec(t)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	c, err := NewCoordinator(spec, path, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shards, _ := spec.Shards()
	if _, err := c.Complete(runShardDirect(t, shards[0])); err != nil {
		t.Fatal(err)
	}
	c.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	foreign := strings.Repeat("f", len(shards[0].Key))
	if err := os.WriteFile(path, []byte(strings.Replace(string(data), shards[0].Key, foreign, 1)), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCoordinator(spec, path, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st := c2.Status(); st.Done != 0 || c2.JournalDropped() != 1 {
		t.Fatalf("resumed %d shards, dropped %d lines; want 0 and 1", st.Done, c2.JournalDropped())
	}
}

// tamperJournalHashes rewrites every done record's hash in the journal
// at path, so each record fails verification.
func tamperJournalHashes(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	n := 0
	for i, l := range lines {
		if strings.HasPrefix(l, `{"t":"done"`) {
			lines[i] = strings.Replace(l, `"hash":"`, `"hash":"00`, 1)
			n++
		}
	}
	if n == 0 {
		t.Fatal("journal holds no done record")
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptCompletionIsPermanent: a completion that fails its hash
// answers 422 on its first attempt, and the worker stops with an error
// naming the mismatch instead of retrying.
func TestCorruptCompletionIsPermanent(t *testing.T) {
	spec := tinySpec(t)
	c, err := NewCoordinator(spec, "", CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	inner := c.Handler()
	var mu sync.Mutex
	var statuses []int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/complete" {
			inner.ServeHTTP(w, r)
			return
		}
		// Tamper with the result in transit: its hash no longer matches.
		var res ShardResult
		if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
			t.Error(err)
		}
		res.Agg.Trials++
		body, _ := json.Marshal(res)
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		mu.Lock()
		statuses = append(statuses, rec.Code)
		mu.Unlock()
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer srv.Close()

	w := NewWorker(srv.URL, WorkerOptions{
		Poll:        5 * time.Millisecond,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = w.Run(ctx)
	if err == nil || ctx.Err() != nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("worker returned %v, want an error naming the hash mismatch", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(statuses) != 1 || statuses[0] != http.StatusUnprocessableEntity {
		t.Fatalf("/v1/complete answered %v, want one 422", statuses)
	}
}

func TestJournalRefusesForeignSpec(t *testing.T) {
	spec := tinySpec(t)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, _, _, err := OpenJournal(path, spec.Hash())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	other := mustParse(t, `{"trials":2,"base":{"side":5,"k":10,"m":1}}`)
	if _, err := NewCoordinator(other, path, CoordinatorOptions{}); err == nil {
		t.Fatal("coordinator adopted a foreign journal")
	}
}

func TestWorkerBackoffBounds(t *testing.T) {
	w := NewWorker("http://invalid", WorkerOptions{
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
	})
	for attempt := 0; attempt < 64; attempt++ {
		d := w.backoff(attempt)
		if d < 5*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("backoff(%d) = %v outside [base/2, max]", attempt, d)
		}
	}
	// Early attempts must actually grow toward the cap.
	if d := w.backoff(10); d < 50*time.Millisecond {
		t.Fatalf("backoff(10) = %v, want saturated near max", d)
	}
}

func TestHTTPWorkQueueWithFlakes(t *testing.T) {
	spec := tinySpec(t)
	c, err := NewCoordinator(spec, "", CoordinatorOptions{FlakeProb: 0.3, FlakeSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	w := NewWorker(srv.URL, WorkerOptions{
		ID:          "flaketest",
		Poll:        5 * time.Millisecond,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if w.Shards != 2 {
		t.Fatalf("worker completed %d shards, want 2", w.Shards)
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := c.Merged()
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunDirect(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("flaky-path merge diverges from RunDirect")
	}
}

func TestHTTPBodyCapAndBadJSON(t *testing.T) {
	spec := tinySpec(t)
	c, err := NewCoordinator(spec, "", CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/lease", "application/json",
		strings.NewReader(`{"worker":"`+strings.Repeat("x", maxBodyBytes+1)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %s, want 413", resp.Status)
	}

	resp, err = http.Post(srv.URL+"/v1/complete", "application/json", strings.NewReader(`{garbage`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %s, want 400", resp.Status)
	}
}

// TestHTTPRejectsMalformedBodies: every POST endpoint answers 400 to
// its well-formed body followed by trailing garbage, with an unknown
// field, twice over, and to another endpoint's body, and the coordinator
// does not act on it; each well-formed body itself is accepted.
func TestHTTPRejectsMalformedBodies(t *testing.T) {
	spec := tinySpec(t)
	shards, err := spec.Shards()
	if err != nil {
		t.Fatal(err)
	}
	result, err := json.Marshal(runShardDirect(t, shards[0]))
	if err != nil {
		t.Fatal(err)
	}
	// post sends body to a fresh coordinator that has granted lease 1.
	post := func(t *testing.T, path, body string) (int, Status, Status) {
		t.Helper()
		c, err := NewCoordinator(spec, "", CoordinatorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if rep := c.Lease("w"); rep.Lease != 1 {
			t.Fatalf("first lease %+v", rep)
		}
		before := c.Status()
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code, before, c.Status()
	}
	for _, ep := range []struct{ path, body, foreign string }{
		{"/v1/lease", `{"worker":"w"}`, `{"key":"k","error":"e"}`},
		{"/v1/renew", `{"lease":1}`, `{"worker":"w"}`},
		{"/v1/complete", string(result), `{"key":"` + shards[0].Key + `","error":"e"}`},
		{"/v1/fail", `{"key":"` + shards[0].Key + `","error":"e"}`, `{"lease":1}`},
	} {
		if code, _, _ := post(t, ep.path, ep.body); code != http.StatusOK {
			t.Fatalf("%s: well-formed body answered %d", ep.path, code)
		}
		for _, bad := range []struct{ name, body string }{
			{"trailing garbage", ep.body + " trailing garbage"},
			{"unknown field", `{"bogus":1,` + ep.body[1:]},
			{"second value", ep.body + ep.body},
			{"foreign body", ep.foreign},
		} {
			t.Run(strings.TrimPrefix(ep.path, "/v1/")+"/"+bad.name, func(t *testing.T) {
				code, before, after := post(t, ep.path, bad.body)
				if code != http.StatusBadRequest {
					t.Errorf("answered %d, want 400", code)
				}
				if after != before {
					t.Errorf("status moved from %+v to %+v", before, after)
				}
			})
		}
	}
}

func TestArtifactWriters(t *testing.T) {
	spec := tinySpec(t)
	aggs, err := RunDirect(spec)
	if err != nil {
		t.Fatal(err)
	}
	var csvA, csvB, jsonA, jsonB strings.Builder
	if err := WriteCSV(&csvA, spec, aggs); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&csvB, spec, aggs); err != nil {
		t.Fatal(err)
	}
	if csvA.String() != csvB.String() {
		t.Fatal("CSV writer not deterministic")
	}
	if !strings.HasPrefix(csvA.String(), "point,label,trials,max_load_mean") {
		t.Fatalf("CSV header wrong: %.80s", csvA.String())
	}
	if err := WriteJSON(&jsonA, spec, aggs); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&jsonB, spec, aggs); err != nil {
		t.Fatal(err)
	}
	if jsonA.String() != jsonB.String() {
		t.Fatal("JSON writer not deterministic")
	}
	if !strings.Contains(jsonA.String(), spec.Hash()) {
		t.Fatal("JSON artifact missing spec hash")
	}
	// Length mismatch is an error, not a truncated artifact.
	if err := WriteCSV(&csvA, spec, aggs[:0]); err == nil {
		t.Fatal("short aggregate slice accepted")
	}
}

func TestMergeShardsMissing(t *testing.T) {
	spec := tinySpec(t)
	shards, _ := spec.Shards()
	results := map[string]ShardResult{shards[0].Key: runShardDirect(t, shards[0])}
	if _, err := MergeShards(spec, results); err == nil {
		t.Fatal("merged with a missing shard")
	}
}
