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
		"churn":      {"94cc0eceb9db33942736d078ae90c65a34afc980f3990c989d542cf02f1a742f", "fe3e86de0a6ef7a4b5cbc131c515afe9136f006bec64ad14deb658b3025bdf7e"},
		"radius":     {"9a2c6142ea45d6490374026b2b1ec5a40d7111c563ce43c3292ac91654ae04bc", "66722a8bddb81735d1370ec27ff34c8a0a0be2925198b44c12d866902038779e"},
		"smoke":      {"73f955c99b58cdb6ed06031b5c1fbfcfbcbce55146c91fd2b9a0b89c0decd078", "3fb9d03c9d16e951185fcd7a89b78e27609186d103cdd87f90771ee014499aa1"},
		"strategies": {"106c06470f3818fdf96f0a932d73aadc94519647832e05516d35093494c0cb87", "112352aaf752ca1a9396c3fe48154206058a8fdf31161dd027cbb63edb0d05a2"},
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
