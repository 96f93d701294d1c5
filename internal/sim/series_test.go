package sim

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestBlockRange pins the partition formula: blocks tile [0, trials)
// exactly, in order, with no gaps or overlaps, and match the historical
// trials*b/blocks arithmetic that Run and RunSeries always used.
func TestBlockRange(t *testing.T) {
	for _, tc := range []struct{ trials, blocks int }{
		{10, 1}, {10, 3}, {10, 10}, {7, 4}, {1, 1}, {1024, 7},
	} {
		prev := 0
		for b := 0; b < tc.blocks; b++ {
			lo, hi := BlockRange(tc.trials, tc.blocks, b)
			if lo != prev {
				t.Fatalf("BlockRange(%d,%d,%d) lo=%d, want %d (gap or overlap)", tc.trials, tc.blocks, b, lo, prev)
			}
			if hi < lo {
				t.Fatalf("BlockRange(%d,%d,%d) hi=%d < lo=%d", tc.trials, tc.blocks, b, hi, lo)
			}
			if want := tc.trials * b / tc.blocks; lo != want {
				t.Fatalf("BlockRange(%d,%d,%d) lo=%d, want %d", tc.trials, tc.blocks, b, lo, want)
			}
			prev = hi
		}
		if prev != tc.trials {
			t.Fatalf("BlockRange(%d,%d,·) covers [0,%d), want [0,%d)", tc.trials, tc.blocks, prev, tc.trials)
		}
	}
}

// TestRunBlockMatchesRun pins the core distribution invariant: folding
// RunBlock partials in ascending block order reproduces Run's aggregate
// bit-for-bit, because both sides use the same partition, the same
// per-trial seeds, and the same ascending Add/Merge order.
func TestRunBlockMatchesRun(t *testing.T) {
	cfg := baseConfig()
	cfg.Strategy = StrategySpec{Kind: TwoChoices, Radius: 3}
	const trials, blocks = 10, 4

	want, err := Run(cfg, trials, blocks)
	if err != nil {
		t.Fatal(err)
	}

	world, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got Aggregate
	for b := 0; b < blocks; b++ {
		lo, hi := BlockRange(trials, blocks, b)
		got.Merge(world.RunBlock(uint64(lo), uint64(hi)))
	}

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RunBlock fold diverges from Run:\n got %+v\nwant %+v", got, want)
	}
}

// TestAggregateJSONRoundTrip pins the wire property the sweep layer
// depends on: an Aggregate survives JSON encode/decode bit-exactly,
// because stats.Summary marshals its raw moments and Go's float64 JSON
// round-trip is exact.
func TestAggregateJSONRoundTrip(t *testing.T) {
	cfg := baseConfig()
	cfg.Strategy = StrategySpec{Kind: TwoChoices, Radius: 2}
	cfg.Churn = ChurnReplicas
	cfg.ChurnRate = 0.01
	want, err := Run(cfg, 6, 2)
	if err != nil {
		t.Fatal(err)
	}

	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Aggregate
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("aggregate mutated in JSON transit:\n got %+v\nwant %+v", got, want)
	}

	// Round-tripping again must produce identical bytes — the property
	// content hashes and byte-identical artifacts rest on.
	b2, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("marshal not stable:\n %s\n %s", b, b2)
	}
}
