// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON map (benchmark name → ns/op, B/op, allocs/op,
// iterations), so CI can archive a structured perf trajectory next to
// the benchstat-friendly text artifact and future PRs can diff numbers
// programmatically:
//
//	go test -bench . -count 5 -run '^$' ./... | benchjson > BENCH_$SHA.json
//
// Repeats of one benchmark within one package (`-count`) fold into one
// entry: ns_per_op is the median of the runs, with their minimum, their
// median absolute deviation and the run count beside it; iterations are
// summed, B/op and allocs/op are the largest any run reported, and extra
// metrics are the first run's.
//
// Malformed or truncated benchmark lines — an interrupted run, an OOM
// kill mid-line, interleaved panic output — are skipped with a warning
// on stderr rather than aborting: a perf archive with one corrupt line
// should still yield every other result.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's result, folded over its runs.
type Entry struct {
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"` // median over the runs
	MinNsPerOp  float64  `json:"min_ns_per_op"`
	MADNsPerOp  float64  `json:"mad_ns_per_op"` // median absolute deviation
	Runs        int      `json:"runs"`
	BytesPerOp  *int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64   `json:"allocs_per_op,omitempty"`
	Extra       []string `json:"extra,omitempty"` // unrecognized metric tokens, verbatim
}

func main() {
	out, err := parse(os.Stdin, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse extracts benchmark lines ("BenchmarkX-8   10   123 ns/op ...")
// from bench output, ignoring everything else (PASS/ok lines). A line
// that looks like a benchmark but carries an unparseable value is
// skipped with a warning to warnw — only I/O errors abort the run.
// Repeats of a name within one "pkg:" block fold into one entry; the
// same name in another package gets a "#2", "#3", ... suffix, mirroring
// benchstat's disambiguation.
func parse(r io.Reader, warnw io.Writer) (map[string]Entry, error) {
	type group struct {
		name string
		runs []Entry
	}
	var groups []*group
	byKey := map[[2]string]*group{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == "pkg:" {
			pkg = f[1]
			continue
		}
		if len(f) == 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if len(f) < 4 {
			warn(warnw, lineno, "truncated benchmark line", sc.Text())
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			warn(warnw, lineno, "bad iteration count", sc.Text())
			continue
		}
		e := Entry{Iterations: iters}
		seen, bad := false, false
		for i := 2; i+1 < len(f) && !bad; i += 2 {
			val, unit := f[i], f[i+1]
			switch unit {
			case "ns/op":
				if e.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
					warn(warnw, lineno, "bad ns/op value", sc.Text())
					bad = true
				}
				seen = true
			case "B/op":
				b, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					warn(warnw, lineno, "bad B/op value", sc.Text())
					bad = true
					break
				}
				e.BytesPerOp = &b
			case "allocs/op":
				a, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					warn(warnw, lineno, "bad allocs/op value", sc.Text())
					bad = true
					break
				}
				e.AllocsPerOp = &a
			default:
				e.Extra = append(e.Extra, val+" "+unit)
			}
		}
		if bad || !seen {
			continue
		}
		name := f[0]
		// Strip the GOMAXPROCS suffix ("-8") for stable names across hosts.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		g := byKey[[2]string{pkg, name}]
		if g == nil {
			g = &group{name: name}
			byKey[[2]string{pkg, name}] = g
			groups = append(groups, g)
		}
		g.runs = append(g.runs, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string]Entry{}
	for _, g := range groups {
		key := g.name
		for n := 2; ; n++ {
			if _, dup := out[key]; !dup {
				break
			}
			key = fmt.Sprintf("%s#%d", g.name, n)
		}
		out[key] = fold(g.runs)
	}
	return out, nil
}

// fold combines the runs of one benchmark into one entry.
func fold(runs []Entry) Entry {
	e := runs[0]
	ns := make([]float64, len(runs))
	for i, r := range runs {
		ns[i] = r.NsPerOp
		if i > 0 {
			e.Iterations += r.Iterations
			e.BytesPerOp = maxPtr(e.BytesPerOp, r.BytesPerOp)
			e.AllocsPerOp = maxPtr(e.AllocsPerOp, r.AllocsPerOp)
		}
	}
	e.Runs = len(runs)
	e.NsPerOp = median(ns)
	e.MinNsPerOp = slices.Min(ns)
	for i := range ns {
		ns[i] = math.Abs(ns[i] - e.NsPerOp)
	}
	e.MADNsPerOp = median(ns)
	return e
}

// median returns the median of xs, reordering them.
func median(xs []float64) float64 {
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// maxPtr returns the larger of two optional counts.
func maxPtr(a, b *int64) *int64 {
	if a == nil || (b != nil && *b > *a) {
		return b
	}
	return a
}

// warn reports one skipped line.
func warn(w io.Writer, lineno int, why, line string) {
	if w == nil {
		return
	}
	const maxEcho = 120
	if len(line) > maxEcho {
		line = line[:maxEcho] + "…"
	}
	fmt.Fprintf(w, "benchjson: line %d skipped (%s): %s\n", lineno, why, line)
}

// sortedNames is kept for tests (stable listing of parsed benchmarks).
func sortedNames(m map[string]Entry) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
