package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// latencyBound caps the per-batch latency histogram at 100ms in
// microsecond resolution — far above any healthy batch, so quantiles
// stay exact where they matter and the histogram stays a fixed 800KB.
const latencyBound = 100_000

// Server is the HTTP front of an Engine: batched placement queries on
// POST /v1/place, liveness on GET /healthz, and qps/latency/era
// diagnostics on GET /metrics. Decision contexts and the /v1/place
// codec's buffers are pooled per request, so concurrent connections
// scale like the in-process engine.
type Server struct {
	e       *Engine
	mux     *http.ServeMux
	start   time.Time
	scratch sync.Pool // *placeScratch

	mu      sync.Mutex
	lat     *stats.Accumulator // per-batch service latency, µs
	batches int64
}

// NewServer wraps e in an HTTP handler.
func NewServer(e *Engine) *Server {
	s := &Server{
		e:       e,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		scratch: sync.Pool{New: func() any { return new(placeScratch) }},
		lat:     stats.NewAccumulator(latencyBound),
	}
	s.mux.HandleFunc("POST /v1/place", s.handlePlace)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Engine returns the wrapped engine.
func (s *Server) Engine() *Engine { return s.e }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// PlaceRequest is the POST /v1/place body: a batch of queries. The
// server accepts exactly the bodies json.Unmarshal accepts into it, as
// one document with nothing after it but whitespace.
type PlaceRequest struct {
	Pairs []Pair `json:"pairs"`
}

// PlaceResponse is the POST /v1/place answer: one decision per query,
// all stamped with the single snapshot version they observed. The
// server writes it as json.NewEncoder would, on one line.
type PlaceResponse struct {
	Stamp
	Decisions []Decision `json:"decisions"`
}

// maxBatch bounds one /v1/place request; larger batches should be
// split client-side (the stamp is per batch, so a bound also bounds
// how stale a batch's pinned snapshot can get).
const maxBatch = 1 << 16

// maxPlaceBody caps the /v1/place request body before JSON decoding
// starts: a full maxBatch of pairs is well under 4MB, so anything
// larger is a hostile or broken client, answered 413 instead of being
// buffered.
const maxPlaceBody = 4 << 20

// handlePlace reads the body whole, decodes it with the pooled
// placeDecoder, answers the batch and writes the encoded answer in one
// Write with its Content-Length.
func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	sc := s.scratch.Get().(*placeScratch)
	defer s.scratch.Put(sc)

	r.Body = http.MaxBytesReader(w, r.Body, maxPlaceBody)
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(r.Body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxPlaceBody), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad request: read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	n, err := sc.dec.decode(sc.body.Bytes())
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if n == 0 {
		http.Error(w, "bad request: empty batch", http.StatusBadRequest)
		return
	}
	if n > maxBatch {
		http.Error(w, fmt.Sprintf("bad request: batch %d exceeds limit %d", n, maxBatch), http.StatusBadRequest)
		return
	}
	pairs := sc.dec.pairs[:n]
	nodes := s.e.World().N()
	k := s.e.World().Config().K
	for i, p := range pairs {
		if p.User < 0 || int(p.User) >= nodes || p.File < 0 || int(p.File) >= k {
			http.Error(w, fmt.Sprintf("bad request: pair %d (u=%d f=%d) out of range (n=%d K=%d)", i, p.User, p.File, nodes, k), http.StatusBadRequest)
			return
		}
	}

	t0 := time.Now()
	ctx := s.e.Get()
	sc.decisions = slices.Grow(sc.decisions[:0], n)[:n]
	stamp := ctx.PlaceBatch(pairs, sc.decisions)
	s.e.Put(ctx)
	el := time.Since(t0).Microseconds()

	s.mu.Lock()
	s.lat.Observe(int(el))
	s.batches++
	s.mu.Unlock()

	sc.out = appendPlaceResponse(sc.out[:0], stamp, sc.decisions)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	// AppendInt, not Itoa: Itoa returns a static string below 100, so
	// the call's allocation count would depend on the answer's size.
	var digits [20]byte
	h.Set("Content-Length", string(strconv.AppendInt(digits[:0], int64(len(sc.out)), 10)))
	w.Write(sc.out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// Metrics is the GET /metrics payload: the server's counters and the
// published snapshot's whole era stamp, its fields inlined.
type Metrics struct {
	UptimeSec float64 `json:"uptime_sec"`
	Decisions int64   `json:"decisions"`
	Batches   int64   `json:"batches"`
	QPS       float64 `json:"qps"` // decisions/s over uptime
	LatMeanUS float64 `json:"lat_mean_us"`
	LatP50US  int     `json:"lat_p50_us"`
	LatP99US  int     `json:"lat_p99_us"`
	LatMaxUS  int     `json:"lat_max_us"`
	sim.SnapshotInfo
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	info := s.e.Info()
	up := time.Since(s.start).Seconds()
	served := s.e.Served()
	s.mu.Lock()
	m := Metrics{
		UptimeSec:    up,
		Decisions:    served,
		Batches:      s.batches,
		LatMeanUS:    s.lat.Mean(),
		LatP50US:     s.lat.Quantile(0.5),
		LatP99US:     s.lat.Quantile(0.99),
		LatMaxUS:     s.lat.Max(),
		SnapshotInfo: info,
	}
	s.mu.Unlock()
	if up > 0 {
		m.QPS = float64(served) / up
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&m)
}
