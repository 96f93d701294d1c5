// Command perfbench is the repository's benchmark: it drives the cache
// network simulator through three workloads, checks every output
// against the paper's laws, and prints its metrics as one JSON line.
//
// Run it from the repository root through its build wrapper, which
// compiles this package with every Go cache kept under .bench_build/:
//
//	python3 perfbench/run.py --workload static --seed 1 --seconds 10 --trace 0
//
// Workloads (a seed fixes every input: world placement, request stream,
// fault/churn/arrival schedules):
//
//   - static: batch two-choices trials (r = 8, tile index, split
//     streams) on a quiesced 100×100 torus, K = 10⁴ Zipf(1.2) files,
//     M = 10 — the request path alone: sampling, placement, assignment.
//   - dynamic: batch trials at internal/sim's paper-scale benchmark
//     point (70×70 torus, K = 10⁴ Zipf(1.2), M = 10, r = 8) with the
//     mutation rates of its churn, fault and arrival benchmarks composed:
//     replica churn 0.5, crashes 0.01 recovering at 0.005 and power-law
//     node arrivals 0.01 per request — the same path plus the
//     chunk-barrier mutations, which take most of the trial.
//   - served: /v1/place batches of 256 queries over loopback HTTP to an
//     in-process cachesimd engine (closed loop, one client) — JSON
//     codec, HTTP transport and the snapshot engine.
//
// Each run makes a fixed number of units of work (trials of n requests,
// calls of 256 queries), sized to take about --seconds, and reports
// medians over the units. Times are normalized by an interleaved
// calibration kernel to cancel the host's drift (see calib.go).
//
// With --trace 0 a run reports the end-to-end metrics: latency_ms, the
// median time of one unit, and setup_s, the median of 21 cold set-ups
// (compile the world and answer the first trial or batch). With
// --trace 1 it instead times each layer from outside, around the calls
// into it, and reports the per-layer metrics; a layer the workload does
// not run reports 0. The last line of standard output is
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// where attempted counts units, failed counts units whose outputs broke
// a law, and correct also requires the run-wide laws (replay
// determinism, Strategy II beating Strategy I on max load).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// setupReps is how many times an end-to-end run repeats its set-up;
	// setup_s is the median.
	setupReps = 21
	// minUnits is the least number of units a run makes.
	minUnits = 20
	// maxRun bounds a run's measured loop, as does 2.5·--seconds, when
	// the host or the program is far slower than the pace its work was
	// sized for; such a run reports the units it made.
	maxRun = 120 * time.Second
)

// options are the command-line arguments of one run, and the work they
// fix.
type options struct {
	workload string
	seed     uint64
	trace    bool
	spans    string // where a traced run writes its span log ("" = nowhere)

	units int       // units of work the run makes
	limit time.Time // wall-clock bound on the measured loop
}

// more reports whether a run that has made done units goes on.
func (o options) more(done int) bool {
	return done < o.units && (done < minUnits || time.Now().Before(o.limit))
}

// outcome is what a workload measured: the units attempted and failed,
// the run-wide law violations, and the metric values by name.
type outcome struct {
	attempted int
	failed    int
	broken    []string
	values    map[string]float64
}

// fail records one law violation; unit says whether it fails a unit
// (counted in failed) or the run as a whole.
func (o *outcome) fail(unit bool, err error) {
	if unit {
		o.failed++
	}
	if len(o.broken) < 8 {
		o.broken = append(o.broken, err.Error())
	}
}

// workload is one named workload: the function that runs it (a nil
// tracer means an end-to-end run) and its pace. A run's work is fixed by
// its arguments, never by how fast the program is: perSecond (untraced)
// or tracedPerSecond units per --seconds, which take about --seconds on
// the machine the paces were set on. Every commit thus measures, and
// law-checks, the same trials and calls for a given seed.
type workload struct {
	run                        func(opt options, tr *tracer) (outcome, error)
	perSecond, tracedPerSecond int
}

var workloads = map[string]workload{
	"static": {
		run:       func(o options, tr *tracer) (outcome, error) { return runBatch(staticConfig(o.seed), o, tr) },
		perSecond: 60, tracedPerSecond: 25,
	},
	"dynamic": {
		run:       func(o options, tr *tracer) (outcome, error) { return runBatch(dynamicConfig(o.seed), o, tr) },
		perSecond: 25, tracedPerSecond: 15,
	},
	"served": {run: runServed, perSecond: 500, tracedPerSecond: 400},
}

// endToEnd and perLayer name every metric a run reports, with its unit.
var (
	endToEnd = []metricDef{
		{"latency_ms", "ms"},
		{"setup_s", "s"},
	}
	perLayer = []metricDef{
		{"place_ms", "ms"},
		{"sample_ns", "ns"},
		{"assign_ns", "ns"},
		{"barrier_us", "us"},
		{"codec_us", "us"},
		{"handler_us", "us"},
		{"wire_us", "us"},
		{"escalated_per_1k", "count"},
		{"retried_per_1k", "count"},
		{"backhaul_per_1k", "count"},
	}
)

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var seconds, trace int
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&opt.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&seconds, "seconds", 10, "about how long the run measures; fixes its units of work")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from timed layer spans")
	fs.StringVar(&opt.spans, "spans", "", "file a traced run writes its spans to, one JSON object a line")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if fs.NArg() > 0 {
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[opt.workload]; !ok {
		return opt, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 {
		return opt, fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	opt.trace = trace == 1
	pace := workloads[opt.workload].perSecond
	if opt.trace {
		pace = workloads[opt.workload].tracedPerSecond
	}
	opt.units = max(minUnits, pace*seconds)
	opt.limit = time.Now().Add(min(time.Duration(seconds)*time.Second*5/2, maxRun))
	return opt, nil
}

func workloadNames() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() {
	opt, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(2)
	}
	var tr *tracer
	defs := endToEnd
	if opt.trace {
		tr = newTracer()
		defs = perLayer
	}
	// Start measuring from a collected heap, whatever ran before.
	runtime.GC()
	o, err := workloads[opt.workload].run(opt, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if tr != nil && opt.spans != "" {
		if err := tr.dump(opt.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	for _, msg := range o.broken {
		fmt.Fprintln(os.Stderr, "perfbench: law violated:", msg)
	}
	res := result{
		Correct:   len(o.broken) == 0 && o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: o.values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
