package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkRunTrial-8         	     100	   4034538 ns/op	       0 B/op	       0 allocs/op
BenchmarkWideWorldTrial-8   	       1	1003456789 ns/op	   11770 B/op	      29 allocs/op
BenchmarkCompile-8          	     500	    210042 ns/op
PASS
ok  	repro/internal/sim	12.3s
pkg: repro/internal/dist
BenchmarkRunTrial-8         	     200	   2000000 ns/op	      16 B/op	       1 allocs/op
BenchmarkZipfSample 	100000000	        11.43 ns/op
ok  	repro/internal/dist	1.2s
`

func TestParseBenchOutput(t *testing.T) {
	var warns strings.Builder
	got, err := parse(strings.NewReader(sample), &warns)
	if err != nil {
		t.Fatal(err)
	}
	if warns.Len() != 0 {
		t.Fatalf("clean input produced warnings: %s", warns.String())
	}
	want := []string{
		"BenchmarkCompile", "BenchmarkRunTrial", "BenchmarkRunTrial#2",
		"BenchmarkWideWorldTrial", "BenchmarkZipfSample",
	}
	if names := sortedNames(got); strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("parsed %v, want %v", names, want)
	}
	wt := got["BenchmarkWideWorldTrial"]
	if wt.Iterations != 1 || wt.NsPerOp != 1003456789 || *wt.BytesPerOp != 11770 || *wt.AllocsPerOp != 29 {
		t.Fatalf("wide trial entry %+v", wt)
	}
	if c := got["BenchmarkCompile"]; c.BytesPerOp != nil || c.AllocsPerOp != nil || c.NsPerOp != 210042 {
		t.Fatalf("compile entry %+v", c)
	}
	if z := got["BenchmarkZipfSample"]; z.NsPerOp != 11.43 || z.Iterations != 100000000 {
		t.Fatalf("zipf entry %+v", z)
	}
	// The duplicate across packages survives with a #2 suffix.
	if d := got["BenchmarkRunTrial#2"]; d.NsPerOp != 2000000 {
		t.Fatalf("duplicate entry %+v", d)
	}
}

// TestParseFoldsCount: -count repeats within one package fold into one
// entry with the median, minimum and MAD of ns/op; the same name in a
// second package still gets its own "#2" entry.
func TestParseFoldsCount(t *testing.T) {
	in := `pkg: repro/internal/serve
BenchmarkPlaceDecode-2   	   40000	     30000 ns/op	       2 B/op	       0 allocs/op
BenchmarkPlaceDecode-2   	   40000	     28000 ns/op	       2 B/op	       0 allocs/op
BenchmarkPlaceDecode-2   	   30000	     35000 ns/op	      16 B/op	       1 allocs/op
BenchmarkOnce-2          	     100	       500 ns/op
ok  	repro/internal/serve	4.2s
pkg: repro/internal/sim
BenchmarkPlaceDecode-2   	      10	        70 ns/op
BenchmarkPlaceDecode-2   	      10	        90 ns/op
`
	got, err := parse(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if names := strings.Join(sortedNames(got), ","); names != "BenchmarkOnce,BenchmarkPlaceDecode,BenchmarkPlaceDecode#2" {
		t.Fatalf("parsed %s", names)
	}
	d := got["BenchmarkPlaceDecode"]
	if d.Runs != 3 || d.NsPerOp != 30000 || d.MinNsPerOp != 28000 || d.MADNsPerOp != 2000 || d.Iterations != 110000 {
		t.Fatalf("folded entry %+v", d)
	}
	if *d.BytesPerOp != 16 || *d.AllocsPerOp != 1 {
		t.Fatalf("folded B/op %d allocs/op %d, want the largest run's 16 and 1", *d.BytesPerOp, *d.AllocsPerOp)
	}
	if o := got["BenchmarkOnce"]; o.Runs != 1 || o.NsPerOp != 500 || o.MinNsPerOp != 500 || o.MADNsPerOp != 0 {
		t.Fatalf("single-run entry %+v", o)
	}
	if d2 := got["BenchmarkPlaceDecode#2"]; d2.Runs != 2 || d2.NsPerOp != 80 || d2.MinNsPerOp != 70 || d2.MADNsPerOp != 10 {
		t.Fatalf("second package's entry %+v", d2)
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	got, err := parse(strings.NewReader("hello\nBenchmarkBroken abc def\nok\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("parsed garbage: %v", got)
	}
}

// TestParseSkipsMalformedLines pins the resilience contract: corrupt
// benchmark lines are skipped with a warning, and every healthy line —
// before or after the corruption — still lands in the output. An
// aborted archive job used to lose the whole run to one torn line.
func TestParseSkipsMalformedLines(t *testing.T) {
	for name, tc := range map[string]struct {
		in        string
		wantNames string
		wantWarns int
	}{
		"bad ns/op value": {
			in:        "BenchmarkGood-8 100 5 ns/op\nBenchmarkBad-8 100 xx ns/op\nBenchmarkAlso-8 10 7 ns/op\n",
			wantNames: "BenchmarkAlso,BenchmarkGood",
			wantWarns: 1,
		},
		"bad iteration count": {
			in:        "BenchmarkBad-8 abc 5 ns/op extra junk\nBenchmarkGood-8 100 5 ns/op\n",
			wantNames: "BenchmarkGood",
			wantWarns: 1,
		},
		"truncated line": {
			in:        "BenchmarkCut-8 100\nBenchmarkGood-8 100 5 ns/op\n",
			wantNames: "BenchmarkGood",
			wantWarns: 1,
		},
		"bad B/op": {
			in:        "BenchmarkBad-8 100 5 ns/op ?? B/op\nBenchmarkGood-8 100 5 ns/op 16 B/op\n",
			wantNames: "BenchmarkGood",
			wantWarns: 1,
		},
		"bad allocs/op": {
			in:        "BenchmarkBad-8 100 5 ns/op 16 B/op NaNish allocs/op\nBenchmarkGood-8 100 5 ns/op\n",
			wantNames: "BenchmarkGood",
			wantWarns: 1,
		},
		"interleaved panic output": {
			in: "BenchmarkGood-8 100 5 ns/op\npanic: runtime error: index out of range\n" +
				"goroutine 1 [running]:\nBenchmarkLater-8 10 9 ns/op\n",
			wantNames: "BenchmarkGood,BenchmarkLater",
			wantWarns: 0,
		},
		"no metrics at all": {
			in:        "BenchmarkOdd-8 100 5 widgets/op\nBenchmarkGood-8 100 5 ns/op\n",
			wantNames: "BenchmarkGood",
			wantWarns: 0, // well-formed line, just no ns/op: silently not a result
		},
	} {
		var warns strings.Builder
		got, err := parse(strings.NewReader(tc.in), &warns)
		if err != nil {
			t.Errorf("%s: parse aborted: %v", name, err)
			continue
		}
		if names := strings.Join(sortedNames(got), ","); names != tc.wantNames {
			t.Errorf("%s: parsed %q, want %q", name, names, tc.wantNames)
		}
		if n := strings.Count(warns.String(), "benchjson: line"); n != tc.wantWarns {
			t.Errorf("%s: %d warnings, want %d:\n%s", name, n, tc.wantWarns, warns.String())
		}
	}
}

// TestWarnTruncatesEcho keeps warning lines bounded even when the
// corrupt input line is enormous.
func TestWarnTruncatesEcho(t *testing.T) {
	var w strings.Builder
	warn(&w, 3, "test", strings.Repeat("x", 10_000))
	if len(w.String()) > 200 {
		t.Fatalf("warning echoes %d bytes", len(w.String()))
	}
}
