package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/serve"
	"repro/internal/sim"
)

const (
	// servedEra is the placement era the engine serves.
	servedEra = 1
	// servedBatch is the number of queries in one /v1/place call.
	servedBatch = 256
	// servedPool is the number of pre-generated queries the client
	// cycles through (a multiple of servedBatch).
	servedPool = 1 << 16
	// servedWarm is the number of calls made before measuring, so the
	// connection, the decision-context pool and the heap are warm.
	servedWarm = 50
	// spanHeader carries the client's round-trip span id to the traced
	// handler, so the handler span records it as its parent.
	spanHeader = "X-Perfbench-Span"
)

// server is one running /v1/place endpoint on loopback and its client.
type server struct {
	eng    *serve.Engine
	srv    *http.Server
	done   chan error
	url    string
	client *http.Client
}

// startServer serves w's era over HTTP on a fresh loopback port. With a
// tracer, every handler call is recorded as a span.
func startServer(w *sim.World, tr *tracer) (*server, error) {
	eng := serve.New(w, servedEra)
	h := http.Handler(serve.NewServer(eng))
	if tr != nil {
		h = tracedHandler(h, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	s := &server{
		eng:    eng,
		srv:    &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done:   make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/place",
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DisableCompression: true}},
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server and the engine down and waits for both.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		s.srv.Close()
	}
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.eng.Close()
	if err != nil {
		return fmt.Errorf("stop server: %w", err)
	}
	return nil
}

// tracedHandler records a "handler" span around every call into h that
// carries the client's span id (warm-up calls carry none).
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		id := tr.begin("handler", int32(parent))
		h.ServeHTTP(w, r)
		tr.end(id, 0)
	})
}

// place sends one /v1/place batch and decodes the answer, recording the
// encode, round-trip and decode spans under root.
func (s *server) place(pairs []serve.Pair, tr *tracer, root int32) (serve.PlaceResponse, error) {
	var resp serve.PlaceResponse
	id := tr.begin("encode", root)
	// A fresh body per call: the transport may still read the previous
	// one after Do returns.
	body, err := json.Marshal(serve.PlaceRequest{Pairs: pairs})
	if err != nil {
		return resp, fmt.Errorf("encode request: %w", err)
	}
	tr.end(id, len(pairs))

	id = tr.begin("roundtrip", root)
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return resp, fmt.Errorf("build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(id)))
	}
	hr, err := s.client.Do(req)
	if err != nil {
		return resp, fmt.Errorf("POST /v1/place: %w", err)
	}
	raw, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil {
		return resp, fmt.Errorf("read /v1/place answer: %w", err)
	}
	tr.end(id, len(pairs))
	if hr.StatusCode != http.StatusOK {
		return resp, fmt.Errorf("POST /v1/place: %s: %s", hr.Status, bytes.TrimSpace(raw))
	}

	id = tr.begin("decode", root)
	if err := json.Unmarshal(raw, &resp); err != nil {
		return resp, fmt.Errorf("decode /v1/place answer: %w", err)
	}
	tr.end(id, len(pairs))
	return resp, nil
}

// queryPool draws the client's queries from the era's request streams,
// the same (user, file) process a batch trial of the era issues.
func queryPool(w *sim.World, snap *sim.Snapshot, tr *tracer) []serve.Pair {
	origins := make([]int32, servedPool)
	files := make([]int32, servedPool)
	originRNG, fileRNG := w.RequestStream(servedEra)
	for base := 0; base < servedPool; base += traceChunk {
		id := tr.begin("sample", -1)
		dist.RequestBatch(originRNG, fileRNG, w.N(), snap.FileSampler(), origins[base:base+traceChunk], files[base:base+traceChunk])
		tr.end(id, traceChunk)
	}
	pairs := make([]serve.Pair, servedPool)
	for i := range pairs {
		pairs[i] = serve.Pair{User: origins[i], File: files[i]}
	}
	return pairs
}

// runServed measures /v1/place calls over loopback HTTP in a closed loop
// with one client.
func runServed(opt options, tr *tracer) (outcome, error) {
	// The static batch world, quiesced, so one frozen snapshot answers
	// every query.
	cfg := staticConfig(opt.seed)
	w, err := sim.Compile(cfg)
	if err != nil {
		return outcome{}, err
	}
	pairs := queryPool(w, w.Snapshot(servedEra), tr)

	// Set-up is what a deployment pays before its first answer: compile
	// the world, build the era's snapshot, start the server and answer
	// one batch on a fresh connection. A traced run sets up once.
	reps := setupReps
	if tr != nil {
		reps = 1
	}
	var s *server
	setup := make([]float64, 0, reps)
	for range reps {
		if s != nil {
			if err := s.stop(); err != nil {
				return outcome{}, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if w, err = sim.Compile(cfg); err != nil {
			return outcome{}, err
		}
		if s, err = startServer(w, tr); err != nil {
			return outcome{}, err
		}
		if _, err := s.place(pairs[:servedBatch], nil, -1); err != nil {
			s.stop()
			return outcome{}, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	o, err := measureServed(w, s, pairs, setup, opt, tr)
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return outcome{}, err
	}
	return o, nil
}

// measureServed makes the run's calls against the running server s and
// derives the metrics, set-up times included.
func measureServed(w *sim.World, s *server, pairs []serve.Pair, setup []float64, opt options, tr *tracer) (outcome, error) {
	snap := s.eng.Snapshot()
	g, r := w.Grid(), w.Config().Strategy.Radius
	sent := int64(servedBatch) // the set-up call on this server
	next := 0
	batch := func() []serve.Pair {
		b := pairs[next : next+servedBatch]
		next = (next + servedBatch) % len(pairs)
		return b
	}
	for range servedWarm {
		if _, err := s.place(batch(), nil, -1); err != nil {
			return outcome{}, err
		}
		sent += servedBatch
	}
	if tr != nil {
		// The era's placement build, timed on its own: the engine built
		// its snapshot during set-up.
		for range 3 {
			id := tr.begin("place", -1)
			w.Snapshot(servedEra)
			tr.end(id, 1)
		}
	}

	var o outcome
	var sc scaler
	var lat []float64 // normalized ms per call
	var escalated, retried int
	out := make([]serve.Decision, servedBatch)
	for opt.more(len(lat)) {
		b := batch()
		sc.ready()
		root := tr.begin("call", -1)
		t0 := time.Now()
		resp, err := s.place(b, tr, root)
		el := time.Since(t0)
		tr.end(root, len(b))
		if err != nil {
			return outcome{}, err
		}
		lat = append(lat, sc.norm(el))
		sent += servedBatch
		for _, d := range resp.Decisions {
			escalated += b2i(int(d.Hops) > r)
			retried += b2i(d.Retried)
		}
		if err := checkDecisions(snap, g, r, b, resp); err != nil {
			o.fail(true, err)
		}
		if tr != nil {
			// The engine alone on the same batch, in process: the
			// assignment layer under the handler.
			ctx := s.eng.Get()
			id := tr.begin("engine", -1)
			ctx.PlaceBatch(b, out)
			tr.end(id, len(b))
			s.eng.Put(ctx)
			sent += servedBatch
		}
	}
	o.attempted = len(lat)
	if got := s.eng.Served(); got != sent {
		o.fail(false, fmt.Errorf("engine counted %d decisions, the client asked for %d", got, sent))
	}
	decisions := float64(len(lat) * servedBatch)
	if tr == nil {
		o.values = map[string]float64{
			"latency_ms": median(lat),
			"setup_s":    sc.factor() * median(setup),
		}
		return o, nil
	}
	f := sc.factor()
	o.values = map[string]float64{
		"place_ms":         f * median(tr.durations("place", time.Millisecond, false)),
		"sample_ns":        f * median(tr.durations("sample", time.Nanosecond, true)),
		"assign_ns":        f * median(tr.durations("engine", time.Nanosecond, true)),
		"codec_us":         f * (median(tr.durations("encode", time.Microsecond, false)) + median(tr.durations("decode", time.Microsecond, false))),
		"handler_us":       f * median(tr.durations("handler", time.Microsecond, false)),
		"wire_us":          f * median(tr.selfTimes("roundtrip", time.Microsecond)),
		"escalated_per_1k": 1e3 * float64(escalated) / decisions,
		"retried_per_1k":   1e3 * float64(retried) / decisions,
	}
	return o, nil
}

// checkDecisions checks one answered batch against the frozen snapshot
// it was served from: one decision per query, all stamped with the
// served era, each naming a node that caches the file at the reported
// torus distance, within r unless no replica lies within r.
func checkDecisions(snap *sim.Snapshot, g *grid.Grid, r int, pairs []serve.Pair, resp serve.PlaceResponse) error {
	if len(resp.Decisions) != len(pairs) {
		return fmt.Errorf("%d decisions for %d queries", len(resp.Decisions), len(pairs))
	}
	if resp.Era != servedEra || resp.Seq != 0 {
		return fmt.Errorf("batch stamped era %d seq %d, want era %d seq 0", resp.Era, resp.Seq, servedEra)
	}
	p := snap.Placement()
	for i, d := range resp.Decisions {
		q := pairs[i]
		switch {
		case d.Node < 0 || int(d.Node) >= p.N():
			return fmt.Errorf("query %d: node %d out of range", i, d.Node)
		case !p.Has(int(d.Node), int(q.File)):
			return fmt.Errorf("query %d: file %d sent to node %d, which does not cache it", i, q.File, d.Node)
		case d.Retried:
			return fmt.Errorf("query %d: retried around a dead node in a world without faults", i)
		case int(d.Hops) != g.Dist(int(q.User), int(d.Node)):
			return fmt.Errorf("query %d: %d hops reported, torus distance is %d", i, d.Hops, g.Dist(int(q.User), int(d.Node)))
		case int(d.Hops) > r:
			for _, v := range p.Replicas(int(q.File)) {
				if g.Dist(int(q.User), int(v)) <= r {
					return fmt.Errorf("query %d: served %d hops away although replica %d lies within r = %d", i, d.Hops, v, r)
				}
			}
		}
	}
	return nil
}
