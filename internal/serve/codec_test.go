package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
)

// servedEra is the era the served benchmark workload answers.
const servedEra = 1

// servedWorkload compiles the world of the served benchmark workload
// (the static batch world: 100×100 torus, K = 10⁴ Zipf(1.2), M = 10,
// two-choices r = 8, seed 1) and draws n queries from its era-1 request
// stream.
func servedWorkload(tb testing.TB, n int) (*sim.World, []Pair) {
	tb.Helper()
	w := compile(tb, sim.Config{
		Side: 100, K: 10_000, M: 10, Seed: 1,
		Popularity: sim.PopSpec{Kind: sim.PopZipf, Gamma: 1.2},
		Strategy:   sim.StrategySpec{Kind: sim.TwoChoices, Radius: 8},
	})
	origins := make([]int32, n)
	files := make([]int32, n)
	originRNG, fileRNG := w.RequestStream(servedEra)
	dist.RequestBatch(originRNG, fileRNG, w.N(), w.Snapshot(servedEra).FileSampler(), origins, files)
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{User: origins[i], File: files[i]}
	}
	return w, pairs
}

// placeBody is the body a client sends for pairs.
func placeBody(tb testing.TB, pairs []Pair) []byte {
	tb.Helper()
	body, err := json.Marshal(PlaceRequest{Pairs: pairs})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// nested wraps inner in depth arrays.
func nested(depth int, inner string) string {
	return strings.Repeat("[", depth) + inner + strings.Repeat("]", depth)
}

// placeBodySeeds covers the edge cases of json.Unmarshal's acceptance
// that the decoder must reproduce. The nesting limit has its own test:
// its 20 KB bodies would stall the fuzzer's minimizer.
var placeBodySeeds = []string{
	`{"pairs":[{"u":1,"f":2},{"u":3,"f":4}]}`,
	" \t\r\n{ \"pairs\" : [ { \"u\" : 1 , \"f\" : 2 } ] } \n",
	// Keys match with bytes.EqualFold after unescaping.
	`{"PAIRS":[{"U":1,"F":2}]}`,
	`{"PAIRſ":[{"u":1,"f":2}]}`,
	`{"pair\u017f":[{"\u0075":1,"\u0046":2}]}`,
	`{"p\u0061irs":[{"\u0055":7}]}`,
	`{"pairs\u0000":[{"u":1}]}`,
	`{"pai\rs":[{"u":1}]}`,
	`{"pairs":[{"u":2,"\f":3}]}`,
	`{"pairs":[{"ü":1,"\ud800":2,"\ud83d\ude00":3,"\udc00\u0075":4,"\\u0075":5}]}`,
	"{\"pairs\":[{\"u\xc5\":1,\"f\":2}]}",
	"{\"pair\xc5\xbf\":[{\"u\":1}]}",
	// Unknown members are skipped but must be valid JSON.
	`{"pairs":[{"u":1,"f":2,"x":[{"y":null,"z":1},-0.5e+3,"s\n\u00e9\"",true,false]}],"extra":{"a":{},"b":[]}}`,
	`{"x":[1,2,],"pairs":[{"u":1,"f":2}]}`,
	`{"x":"\q","pairs":[{"u":1,"f":2}]}`,
	"{\"x\":\"\x01\",\"pairs\":[{\"u\":1,\"f\":2}]}",
	`{"x":01,"pairs":[{"u":1,"f":2}]}`,
	`{"x":1.,"pairs":[{"u":1,"f":2}]}`,
	`{"x":tru,"pairs":[{"u":1,"f":2}]}`,
	`{"x":{"a"},"pairs":[{"u":1,"f":2}]}`,
	// null leaves a field or an element unchanged and resets the slice.
	`{"pairs":[{"u":null,"f":2}]}`,
	`{"pairs":[null,{"u":1,"f":2}]}`,
	`{"pairs":null}`,
	`null`,
	`{}`,
	`{"pairs":[]}`,
	// A repeated "pairs" key decodes into the earlier elements, unless an
	// empty array or null came between them.
	`{"pairs":[{"u":1,"f":2}],"pairs":[{"f":5}]}`,
	`{"pairs":[{"u":1,"f":2}],"pairs":[],"pairs":[{"f":5}]}`,
	`{"pairs":[{"u":1,"f":2}],"pairs":null,"pairs":[{"f":5}]}`,
	`{"pairs":[{"u":1,"f":2},{"u":3,"f":4}],"pairs":[{"f":5}],"pairs":[{},null]}`,
	`{"pairs":[{"u":1,"f":2},{"u":3,"f":4}],"pairs":[null],"x":0}`,
	// Only integer literals in int32 range decode into a field.
	`{"pairs":[{"u":-0,"f":0}]}`,
	`{"pairs":[{"u":2147483647,"f":-2147483648}]}`,
	`{"pairs":[{"u":2147483648,"f":0}]}`,
	`{"pairs":[{"u":-2147483649,"f":0}]}`,
	`{"pairs":[{"u":99999999999999999999999,"f":0}]}`,
	`{"pairs":[{"u":18446744073709551617,"f":0}]}`,
	`{"pairs":[{"u":1.0,"f":0}]}`,
	`{"pairs":[{"u":1e0,"f":0}]}`,
	`{"pairs":[{"u":1E+2,"f":0}]}`,
	`{"pairs":[{"u":"1","f":0}]}`,
	`{"pairs":[{"u":true,"f":0}]}`,
	`{"pairs":[{"u":[],"f":0}]}`,
	`{"pairs":[{"u":{},"f":0}]}`,
	`{"pairs":[{"u":01,"f":0}]}`,
	`{"pairs":[{"u":-,"f":0}]}`,
	`{"pairs":[{"u":1.,"f":0}]}`,
	// Wrong shapes and broken structure.
	`{"pairs":{}}`,
	`{"pairs":"x"}`,
	`{"pairs":[1]}`,
	`{"pairs":[[]]}`,
	`[]`,
	`"pairs"`,
	`1`,
	``,
	`{"pairs":[{"u":1,"f":2}]} x`,
	`{"pairs":[{"u":1,"f":2}]}{}`,
	`{"pairs":[{"u":1,"f":2},]}`,
	`{"pairs":[{"u":1,"f":2}],}`,
	`{"pairs":[{"u":1,"f":2}]`,
	`{"pairs":[{"u":1 "f":2}]}`,
	`{"pairs":[{"u":1,"f":2}]]}`,
	`{"pairs" [{"u":1,"f":2}]}`,
	`{pairs:[{"u":1,"f":2}]}`,
	`{"pairs":[{"u":1,"f":2}]}` + "\x00",
}

// decisionsFrom derives a response's decisions from fuzz bytes, nine per
// decision (node, hops, retried), at most eight of them, which keeps each
// execution cheap for the fuzzer's minimizer; no bytes give nil
// decisions.
func decisionsFrom(b []byte) []Decision {
	if len(b) == 0 {
		return nil
	}
	ds := []Decision{}
	for ; len(b) >= 9 && len(ds) < 8; b = b[9:] {
		ds = append(ds, Decision{
			Node:    int32(binary.LittleEndian.Uint32(b)),
			Hops:    int32(binary.LittleEndian.Uint32(b[4:])),
			Retried: b[8]&1 == 1,
		})
	}
	return ds
}

// FuzzPlaceBody checks the /v1/place codec against encoding/json: the
// decoder accepts exactly the bodies json.Unmarshal accepts and yields
// the same pairs, and the encoder writes what json.NewEncoder writes.
// One decoder serves every input, as a pooled one serves requests.
func FuzzPlaceBody(f *testing.F) {
	for _, s := range placeBodySeeds {
		f.Add([]byte(s), uint64(0), uint64(0))
	}
	extremes := binary.LittleEndian.AppendUint32(nil, math.MaxUint32>>1+1) // MinInt32
	extremes = binary.LittleEndian.AppendUint32(extremes, math.MaxInt32)
	extremes = append(extremes, 1)
	extremes = binary.LittleEndian.AppendUint32(extremes, math.MaxInt32)
	extremes = binary.LittleEndian.AppendUint32(extremes, math.MaxUint32>>1+1)
	extremes = append(extremes, 0)
	f.Add(extremes, uint64(math.MaxUint64), uint64(0))
	f.Add(extremes[:9], uint64(0), uint64(math.MaxUint64))
	f.Add(extremes[:5], uint64(1), uint64(1))

	var d placeDecoder
	var out []byte
	f.Fuzz(func(t *testing.T, body []byte, era, seq uint64) {
		var want PlaceRequest
		wantErr := json.Unmarshal(body, &want)
		n, err := d.decode(body)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("body %q: decoder error %v, json.Unmarshal error %v", body, err, wantErr)
		}
		if err == nil {
			if n != len(want.Pairs) {
				t.Fatalf("body %q: decoded %d pairs, json.Unmarshal %d", body, n, len(want.Pairs))
			}
			if n <= maxBatch && !slices.Equal(d.pairs[:n], want.Pairs) {
				t.Fatalf("body %q: decoded %v, json.Unmarshal %v", body, d.pairs[:n], want.Pairs)
			}
		}

		resp := PlaceResponse{Stamp: Stamp{Era: era, Seq: seq}, Decisions: decisionsFrom(body)}
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(&resp); err != nil {
			t.Fatal(err)
		}
		out = appendPlaceResponse(out[:0], resp.Stamp, resp.Decisions)
		if !bytes.Equal(out, enc.Bytes()) {
			t.Fatalf("encoded %q, json.NewEncoder %q", out, enc.Bytes())
		}
	})
}

// TestPlaceDecodeDepthLimit: values of unknown members may nest up to
// maxNestingDepth arrays and objects, counted from the top-level object,
// and no deeper, as with json.Unmarshal.
func TestPlaceDecodeDepthLimit(t *testing.T) {
	var d placeDecoder
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"x":` + nested(maxNestingDepth-1, "") + `,"pairs":[{"u":1,"f":2}]}`, true},
		{`{"x":` + nested(maxNestingDepth, "") + `,"pairs":[{"u":1,"f":2}]}`, false},
		{`{"pairs":[{"u":1,"f":2,"x":` + nested(maxNestingDepth-4, "{}") + `}]}`, true},
		{`{"pairs":[{"u":1,"f":2,"x":` + nested(maxNestingDepth-3, "{}") + `}]}`, false},
	} {
		var want PlaceRequest
		wantErr := json.Unmarshal([]byte(tc.body), &want)
		n, err := d.decode([]byte(tc.body))
		if (wantErr == nil) != tc.ok || (err == nil) != tc.ok {
			t.Errorf("%d-byte body: decoder error %v, json.Unmarshal error %v, want accepted %v", len(tc.body), err, wantErr, tc.ok)
		}
		if tc.ok && (n != 1 || d.pairs[0] != want.Pairs[0]) {
			t.Errorf("%d-byte body: decoded %v, json.Unmarshal %v", len(tc.body), d.pairs[:n], want.Pairs)
		}
	}
}

// TestPlaceDecodeLongBatch: an array past maxBatch is parsed to its end
// but stores no more than maxBatch pairs, and a later "pairs" key still
// replaces it, as with json.Unmarshal.
func TestPlaceDecodeLongBatch(t *testing.T) {
	long := strings.Repeat(`{"u":1,"f":2},`, maxBatch) + `{"u":"x"}`
	var d placeDecoder
	if _, err := d.decode([]byte(`{"pairs":[` + long + `]}`)); err == nil {
		t.Fatal("a bad element past maxBatch was accepted")
	}
	long = strings.Repeat(`{"u":1,"f":2},`, maxBatch) + `{}`
	n, err := d.decode([]byte(`{"pairs":[` + long + `]}`))
	if err != nil || n != maxBatch+1 || len(d.pairs) != maxBatch {
		t.Fatalf("long batch: n=%d stored=%d err=%v, want n=%d stored=%d", n, len(d.pairs), err, maxBatch+1, maxBatch)
	}
	n, err = d.decode([]byte(`{"pairs":[` + long + `],"pairs":[{"f":5}]}`))
	if err != nil || n != 1 || d.pairs[0] != (Pair{User: 1, File: 5}) {
		t.Fatalf("replaced long batch: n=%d err=%v pairs[0]=%v, want 1 {1 5}", n, err, d.pairs[0])
	}
}

// TestServeHTTPPlaceContract pins what the codec changed on the wire:
// the answer is json.NewEncoder's encoding of the engine's decisions,
// byte for byte, with its Content-Length; trailing data is 400; and any
// body over the cap is 413, even when a complete document ends first.
func TestServeHTTPPlaceContract(t *testing.T) {
	w, pairs := servedWorkload(t, 256)
	e := New(w, servedEra)
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	post := func(body []byte) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/place", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, raw
	}

	// The server's first context is context 0 of its engine, so a twin
	// engine's context 0 makes the same decisions in process.
	twin := New(w, servedEra)
	defer twin.Close()
	ctx := twin.Get()
	want := PlaceResponse{Decisions: make([]Decision, len(pairs))}
	want.Stamp = ctx.PlaceBatch(pairs, want.Decisions)
	var enc bytes.Buffer
	if err := json.NewEncoder(&enc).Encode(&want); err != nil {
		t.Fatal(err)
	}
	resp, raw := post(placeBody(t, pairs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if !bytes.Equal(raw, enc.Bytes()) {
		t.Fatalf("answer differs from json.NewEncoder's:\n got %q\nwant %q", raw, enc.Bytes())
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
		t.Fatalf("Content-Length %q for a %d-byte answer", cl, len(raw))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}

	one := placeBody(t, pairs[:1])
	for name, tc := range map[string]struct {
		body []byte
		want int
	}{
		"trailing data":   {append(slices.Clip(one), " x"...), http.StatusBadRequest},
		"second document": {append(slices.Clip(one), one...), http.StatusBadRequest},
		"trailing space":  {append(slices.Clip(one), " \n"...), http.StatusOK},
		"over the cap":    {append(slices.Clip(one), bytes.Repeat([]byte(" "), maxPlaceBody)...), http.StatusRequestEntityTooLarge},
		"at the cap":      {append(slices.Clip(one), bytes.Repeat([]byte(" "), maxPlaceBody-len(one))...), http.StatusOK},
	} {
		if resp, raw := post(tc.body); resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", name, resp.StatusCode, bytes.TrimSpace(raw), tc.want)
		}
	}
}

// TestServeHTTPConcurrentBatches: concurrent /v1/place calls each draw
// their own pooled scratch, so every answer holds exactly its own batch's
// decisions, each naming a node that caches the file at the reported
// distance.
func TestServeHTTPConcurrentBatches(t *testing.T) {
	w, pairs := servedWorkload(t, 4*20*64)
	e := New(w, servedEra)
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	p, g := e.Snapshot().Placement(), w.Grid()

	var wg sync.WaitGroup
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				base := (c*20 + i) * 64
				batch := pairs[base : base+1+(c*20+i)%64]
				resp, err := http.Post(srv.URL+"/v1/place", "application/json", bytes.NewReader(placeBody(t, batch)))
				if err != nil {
					t.Error(err)
					return
				}
				var pr PlaceResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil || len(pr.Decisions) != len(batch) {
					t.Errorf("client %d call %d: %d decisions for %d pairs (%v)", c, i, len(pr.Decisions), len(batch), err)
					return
				}
				for j, d := range pr.Decisions {
					q := batch[j]
					if !p.Has(int(d.Node), int(q.File)) || int(d.Hops) != g.Dist(int(q.User), int(d.Node)) {
						t.Errorf("client %d call %d: pair %v answered %+v", c, i, q, d)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// discardWriter is a reusable http.ResponseWriter that drops the answer.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// rewindBody is a request body that can be read again after Reset.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// placeHarness calls handlePlace with one request and one response
// writer reused across calls, so only the handler's own allocations
// count.
type placeHarness struct {
	s    *Server
	r    *http.Request
	raw  []byte
	body rewindBody
	w    discardWriter
}

func newPlaceHarness(s *Server, raw []byte) *placeHarness {
	h := &placeHarness{s: s, raw: raw, w: discardWriter{h: http.Header{}}}
	h.r = httptest.NewRequest(http.MethodPost, "/v1/place", nil)
	h.r.ContentLength = int64(len(raw))
	return h
}

// call answers the body once and returns the status.
func (h *placeHarness) call() int {
	h.body.Reset(h.raw)
	h.r.Body = &h.body
	clear(h.w.h)
	h.w.code = http.StatusOK
	h.s.handlePlace(&h.w, h.r)
	return h.w.code
}

// TestHandlePlaceAllocs: a warmed /v1/place handler allocates the same
// small number of times per call whatever the batch size. What remains
// is the body limiter and the two response headers.
func TestHandlePlaceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and disables pool caching")
	}
	w, pairs := servedWorkload(t, 256)
	e := New(w, servedEra)
	defer e.Close()
	s := NewServer(e)
	allocs := map[int]float64{}
	for _, n := range []int{1, 256} {
		h := newPlaceHarness(s, placeBody(t, pairs[:n]))
		for range 3 {
			if code := h.call(); code != http.StatusOK {
				t.Fatalf("%d pairs: status %d", n, code)
			}
		}
		allocs[n] = testing.AllocsPerRun(50, func() { h.call() })
	}
	t.Logf("allocs per call: %v at 1 pair, %v at 256 pairs", allocs[1], allocs[256])
	if allocs[1] != allocs[256] || allocs[256] > 6 {
		t.Fatalf("allocs per call: %v at 1 pair, %v at 256 pairs; want equal and at most 6", allocs[1], allocs[256])
	}
}
