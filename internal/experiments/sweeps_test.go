package experiments

import "testing"

// TestSweepPresetsParse guarantees every registered preset is a valid,
// fully expandable spec — a preset that fails to parse would otherwise
// only be discovered when someone launches a fleet.
func TestSweepPresetsParse(t *testing.T) {
	if len(SweepIDs()) == 0 {
		t.Fatal("no sweep presets registered")
	}
	for _, id := range SweepIDs() {
		spec, err := SweepSpec(id)
		if err != nil {
			t.Errorf("preset %q: %v", id, err)
			continue
		}
		if spec.Name != id {
			t.Errorf("preset %q names itself %q", id, spec.Name)
		}
		shards, err := spec.Shards()
		if err != nil {
			t.Errorf("preset %q shards: %v", id, err)
			continue
		}
		if len(shards) == 0 {
			t.Errorf("preset %q expands to no shards", id)
		}
	}
	if _, err := SweepSpec("nope"); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestSmokePresetIsQuick pins the CI contract: the smoke preset must
// stay small enough to run twice (chaos + direct) in the sweep-smoke
// job.
func TestSmokePresetIsQuick(t *testing.T) {
	spec, err := SweepSpec("smoke")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	if work := len(pts) * spec.Trials; work > 64 {
		t.Fatalf("smoke preset grew to %d point-trials; keep it CI-sized", work)
	}
}

// TestSweepPresetHashes pins each preset's spec hash and its last
// shard's key. Journals and artifacts are keyed by the spec hash and
// completions by the shard keys, so a change to sim.PointSpec's JSON
// spelling, or to sim.Config's, would orphan every journal written
// before it; it must fail here first.
func TestSweepPresetHashes(t *testing.T) {
	want := map[string][2]string{
		"churn":      {"94cc0eceb9db33942736d078ae90c65a34afc980f3990c989d542cf02f1a742f", "59de40f53594f4a1f78f8e40d2f38c159b24dc9b75df3612aee96fe588bb7edf"},
		"radius":     {"9a2c6142ea45d6490374026b2b1ec5a40d7111c563ce43c3292ac91654ae04bc", "9e3fa815828d5622be6557ead9ec92c7ffe9155ef586277fa1e9c740889bf05b"},
		"smoke":      {"73f955c99b58cdb6ed06031b5c1fbfcfbcbce55146c91fd2b9a0b89c0decd078", "b2097ec8dad68251437be8f6644308ae2137c0ef2112d9b365348b7d4b71df1b"},
		"strategies": {"106c06470f3818fdf96f0a932d73aadc94519647832e05516d35093494c0cb87", "408b9dbeae84dfb647aa837913dce0f73b316fa6e2f1051ab47ab10e8a493fcf"},
	}
	if len(SweepIDs()) != len(want) {
		t.Fatalf("%d presets, %d pinned", len(SweepIDs()), len(want))
	}
	for id, w := range want {
		spec, err := SweepSpec(id)
		if err != nil {
			t.Fatalf("preset %q: %v", id, err)
		}
		shards, err := spec.Shards()
		if err != nil {
			t.Fatalf("preset %q shards: %v", id, err)
		}
		if got := [2]string{spec.Hash(), shards[len(shards)-1].Key}; got != w {
			t.Errorf("preset %q: hash and last shard key %q, want %q", id, got, w)
		}
	}
}
