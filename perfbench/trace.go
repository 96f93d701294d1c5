package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// maxSpans caps the in-memory span log. A traced run stops recording
// beyond it (and says so in the dump) rather than growing without bound.
const maxSpans = 1 << 20

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one unit of work (a trial era, a served batch) share
// the root span as their parent, so a layer's self time is its duration
// minus the part its children cover.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // items the span processed (requests, decisions)
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It is safe for use
// from several goroutines: the served workload records the server-side
// handler span from the HTTP server's goroutine. A nil *tracer records
// nothing, which is how the end-to-end runs measure with tracing off.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id, or
// -1 when tracing is off or the log is full.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return id
}

// end closes span id, recording that it processed n items.
func (t *tracer) end(id int32, n int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].N = n
	t.mu.Unlock()
}

// closed returns the finished spans named name.
func (t *tracer) closed(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the finished spans named name, in
// the given unit, optionally divided by the items each span processed.
func (t *tracer) durations(name string, unit time.Duration, perItem bool) []float64 {
	var out []float64
	for _, s := range t.closed(name) {
		v := float64(s.dur()) / float64(unit)
		if perItem {
			if s.N == 0 {
				continue
			}
			v /= float64(s.N)
		}
		out = append(out, v)
	}
	return out
}

// selfTimes returns, for each finished span named name, its duration
// minus the durations of its finished children, in the given unit.
func (t *tracer) selfTimes(name string, unit time.Duration) []float64 {
	child := make(map[int32]time.Duration)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	var out []float64
	for _, s := range t.closed(name) {
		out = append(out, float64(s.dur()-child[s.ID])/float64(unit))
	}
	return out
}

// dump writes every span as one JSON line to path.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", t.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// median returns the median of xs (0 for an empty sample), averaging the
// two middle values of an even-sized sample. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}
