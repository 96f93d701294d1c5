package serve

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/sim"
)

// quiescedConfig is a served world with no churn or fault process: one
// frozen snapshot forever, the golden-pin regime.
func quiescedConfig() sim.Config {
	return sim.Config{
		Side: 12, K: 100, M: 3, Requests: 600, Seed: 2017,
		Strategy:   sim.StrategySpec{Kind: sim.TwoChoices, Radius: 3},
		Popularity: sim.PopSpec{Kind: sim.PopZipf, Gamma: 0.8},
		Streams:    sim.StreamsSplit,
		Index:      sim.IndexTiles,
	}
}

// stormConfig is a served world under simultaneous churn and faults —
// the regime that exercises the mutator and snapshot swap path.
func stormConfig() sim.Config {
	cfg := quiescedConfig()
	cfg.MissPolicy = sim.MissEscalate
	cfg.Churn = sim.ChurnReplicas
	cfg.ChurnRate = 0.05
	cfg.Faults = sim.FaultsCrash
	cfg.FaultRate = 0.01
	cfg.RecoverRate = 0.005
	return cfg
}

func compile(t testing.TB, cfg sim.Config) *sim.World {
	t.Helper()
	w, err := sim.Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestServeGoldenPin pins the served mode to the batch engine: a
// quiesced daemon answering the era's request stream through a single
// context must reproduce sim.RunTrial's decision scalars
// bit-identically.
func TestServeGoldenPin(t *testing.T) {
	w := compile(t, quiescedConfig())
	for era := uint64(0); era < 3; era++ {
		want := w.RunTrial(era)

		e := New(w, era)
		ctx := e.Get() // context 0: the era's pure assignment stream
		snap := e.Snapshot()
		nReq := w.Requests()
		origins := make([]int32, nReq)
		files := make([]int32, nReq)
		originRNG, fileRNG := w.RequestStream(era)
		dist.RequestBatch(originRNG, fileRNG, w.N(), snap.FileSampler(), origins, files)

		const batch = 97 // deliberately unaligned with the engine chunk
		pairs := make([]Pair, batch)
		out := make([]Decision, batch)
		var hops float64
		retried := 0
		for base := 0; base < nReq; base += batch {
			c := min(batch, nReq-base)
			for i := 0; i < c; i++ {
				pairs[i] = Pair{User: origins[base+i], File: files[base+i]}
			}
			st := ctx.PlaceBatch(pairs[:c], out[:c])
			if st.Era != era || st.Seq != 0 {
				t.Fatalf("era %d: quiesced stamp %+v, want {%d 0}", era, st, era)
			}
			for i := 0; i < c; i++ {
				hops += float64(out[i].Hops)
				if out[i].Retried {
					retried++
				}
			}
		}
		if got := ctx.MaxLoad(); got != want.MaxLoad {
			t.Errorf("era %d: served max load %d, batch trial %d", era, got, want.MaxLoad)
		}
		if got := hops / float64(nReq); got != want.MeanCost {
			t.Errorf("era %d: served mean cost %v, batch trial %v", era, got, want.MeanCost)
		}
		if retried != want.Retried {
			t.Errorf("era %d: served retried %d, batch trial %d", era, retried, want.Retried)
		}
		e.Close()
	}
}

// TestServeSnapshotStress hammers the snapshot swap path under -race:
// concurrent reader contexts place batches while the mutator applies
// churn and fault storms and republishes. Every decision must observe
// one consistent snapshot version (per-batch stamp, monotone per
// context) and stay structurally valid.
func TestServeSnapshotStress(t *testing.T) {
	w := compile(t, stormConfig())
	e := New(w, 0)
	defer e.Close()

	const (
		readers = 8
		batches = 60
		batch   = 64
	)
	n := int32(w.N())
	diam := int32(w.Grid().Diameter())
	var wg sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			ctx := e.Get()
			defer e.Put(ctx)
			rng := rand.New(rand.NewPCG(uint64(rd), 42))
			pairs := make([]Pair, batch)
			out := make([]Decision, batch)
			var last Stamp
			for b := 0; b < batches; b++ {
				for i := range pairs {
					pairs[i] = Pair{User: int32(rng.IntN(int(n))), File: int32(rng.IntN(w.Config().K))}
				}
				st := ctx.PlaceBatch(pairs, out)
				if st.Era != 0 {
					t.Errorf("reader %d: era changed to %d without a reload", rd, st.Era)
					return
				}
				if st.Seq < last.Seq {
					t.Errorf("reader %d: stamp went backwards: %+v after %+v", rd, st, last)
					return
				}
				last = st
				for i, d := range out {
					if d.Node < 0 || d.Node >= n {
						t.Errorf("reader %d: decision %d node %d out of range", rd, i, d.Node)
						return
					}
					if d.Hops < 0 || d.Hops > diam {
						t.Errorf("reader %d: decision %d hops %d out of range", rd, i, d.Hops)
						return
					}
				}
			}
		}(rd)
	}
	wg.Wait()

	// The mutator must have actually advanced the state under the
	// readers: readers*batches*batch decisions were reported.
	deadline := time.Now().Add(5 * time.Second)
	for e.Info().Seq == 0 {
		if time.Now().After(deadline) {
			t.Fatal("mutator never published a new snapshot version")
		}
		time.Sleep(time.Millisecond)
	}
	info := e.Info()
	if info.ChurnEvents == 0 && info.FaultEvents == 0 {
		t.Fatalf("storm applied no events: %+v", info)
	}
	if got := e.Served(); got != readers*batches*batch {
		t.Fatalf("served %d decisions, want %d", got, readers*batches*batch)
	}
}

// TestServeReload checks the SIGHUP path: Reload compiles and publishes
// a fresh era, and contexts re-pin to it with reset load state.
func TestServeReload(t *testing.T) {
	w := compile(t, quiescedConfig())
	e := New(w, 0)
	defer e.Close()

	ctx := e.Get()
	pairs := []Pair{{User: 1, File: 2}, {User: 3, File: 4}}
	out := make([]Decision, len(pairs))
	if st := ctx.PlaceBatch(pairs, out); st.Era != 0 {
		t.Fatalf("initial era %d, want 0", st.Era)
	}
	if ctx.MaxLoad() == 0 {
		t.Fatal("no load assigned before reload")
	}
	e.Reload(7)
	deadline := time.Now().Add(5 * time.Second)
	for e.Info().Era != 7 {
		if time.Now().After(deadline) {
			t.Fatal("reload never published era 7")
		}
		time.Sleep(time.Millisecond)
	}
	st := ctx.PlaceBatch(pairs, out)
	if st.Era != 7 || st.Seq != 0 {
		t.Fatalf("post-reload stamp %+v, want {7 0}", st)
	}
	if got := ctx.MaxLoad(); got > len(pairs) {
		t.Fatalf("load accumulator not reset across eras: max %d", got)
	}
}

// TestServeHTTP drives the full HTTP surface: a placement batch, the
// health probe, the metrics endpoint and the malformed-input paths.
func TestServeHTTP(t *testing.T) {
	w := compile(t, quiescedConfig())
	e := New(w, 0)
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	body, _ := json.Marshal(PlaceRequest{Pairs: []Pair{{User: 0, File: 1}, {User: 5, File: 0}}})
	resp, err := http.Post(srv.URL+"/v1/place", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/place status %d", resp.StatusCode)
	}
	var pr PlaceResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(pr.Decisions) != 2 {
		t.Fatalf("got %d decisions, want 2", len(pr.Decisions))
	}
	for i, d := range pr.Decisions {
		if d.Node < 0 || int(d.Node) >= w.N() {
			t.Fatalf("decision %d node %d out of range", i, d.Node)
		}
	}

	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v status %v", err, hz.Status)
	}
	hz.Body.Close()

	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.NewDecoder(mr.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if m.Decisions != 2 || m.Batches != 1 {
		t.Fatalf("metrics decisions=%d batches=%d, want 2/1", m.Decisions, m.Batches)
	}

	for name, payload := range map[string]string{
		"empty batch":  `{"pairs":[]}`,
		"bad json":     `{"pairs":`,
		"out of range": `{"pairs":[{"u":99999,"f":0}]}`,
		"bad file":     `{"pairs":[{"u":0,"f":-1}]}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/place", "application/json", bytes.NewReader([]byte(payload)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestServeHTTPMetricsStamp: /metrics carries the published snapshot's
// whole era stamp under sim.SnapshotInfo's JSON names, read on an engine
// whose churn, crashes and node arrivals have moved it.
func TestServeHTTPMetricsStamp(t *testing.T) {
	cfg := stormConfig()
	cfg.Hetero = sim.HeteroArrival
	cfg.Profile = sim.ProfilePowerLaw
	cfg.ArrivalRate = 0.02
	w := compile(t, cfg)
	e := New(w, 0)
	stop := sync.OnceFunc(e.Close)
	defer stop()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	rng := rand.New(rand.NewPCG(3, 3))
	pairs := make([]Pair, 64)
	deadline := time.Now().Add(10 * time.Second)
	for info := e.Info(); info.ChurnEvents == 0 || info.FaultEvents == 0 || info.ArrivalEvents == 0; info = e.Info() {
		if time.Now().After(deadline) {
			t.Fatalf("the published stamp never saw churn, a crash and an arrival: %v", info)
		}
		for i := range pairs {
			pairs[i] = Pair{User: int32(rng.IntN(w.N())), File: int32(rng.IntN(cfg.K))}
		}
		resp, err := http.Post(srv.URL+"/v1/place", "application/json", bytes.NewReader(placeBody(t, pairs)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/place status %d", resp.StatusCode)
		}
	}
	// With the mutator stopped, /metrics and e.Info read one snapshot.
	stop()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(e.Info())
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	keys := []string{"era", "seq", "uncached", "churn_events", "churn_skipped", "fault_events",
		"recover_events", "fault_skipped", "dead_nodes", "arrival_events", "arrival_skipped", "vacant"}
	if len(want) != len(keys) {
		t.Errorf("the stamp has %d JSON keys, want %d: %s", len(want), len(keys), raw)
	}
	for _, k := range keys {
		v, ok := want[k]
		if g := got[k]; !ok || g != v {
			t.Errorf("%q: /metrics %v, stamp %v (stamp %s)", k, g, v, raw)
		}
	}
}

// TestLoadgen smoke-tests the in-process driver on both regimes.
func TestLoadgen(t *testing.T) {
	for name, cfg := range map[string]sim.Config{"quiesced": quiescedConfig(), "storm": stormConfig()} {
		t.Run(name, func(t *testing.T) {
			e := New(compile(t, cfg), 0)
			defer e.Close()
			res := Loadgen(e, 5000, 4, 128)
			if res.Decisions != 5000 || res.PerSec <= 0 {
				t.Fatalf("loadgen result %+v", res)
			}
			if res.MaxLoad == 0 {
				t.Fatal("loadgen assigned no load")
			}
			if e.Served() != 5000 {
				t.Fatalf("served %d, want 5000", e.Served())
			}
		})
	}
}

// TestServeHTTPBodyCap pins the /v1/place body cap: an oversized
// request is cut off with 413 before it is buffered, and the server
// keeps answering normal batches afterwards.
func TestServeHTTPBodyCap(t *testing.T) {
	w := compile(t, quiescedConfig())
	e := New(w, 0)
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	// One JSON document longer than the cap: the padding is legal
	// whitespace between tokens, so only the byte cap can stop it.
	huge := append([]byte(`{"pairs":[`), bytes.Repeat([]byte(" "), maxPlaceBody+1)...)
	huge = append(huge, []byte(`{"u":0,"f":1}]}`)...)
	resp, err := http.Post(srv.URL+"/v1/place", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}

	// A body under the cap still works on the same server.
	body, _ := json.Marshal(PlaceRequest{Pairs: []Pair{{User: 0, File: 1}}})
	resp, err = http.Post(srv.URL+"/v1/place", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal batch after 413: status %d", resp.StatusCode)
	}
}
