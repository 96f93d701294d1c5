package sweep

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// specJSON is the canonical small test spec: 2×2 grid, 6 trials in 3
// blocks.
const specJSON = `{
  "name": "unit",
  "trials": 6,
  "blocks": 3,
  "seed": 99,
  "base": {"side": 10, "k": 40, "m": 2},
  "axes": [
    {"field": "strategy", "values": ["nearest", "two-choices"]},
    {"field": "radius", "values": [2, 3]}
  ]
}`

func mustParse(t *testing.T, src string) *Spec {
	t.Helper()
	s, err := ParseSpec([]byte(src))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	return s
}

func TestParseSpecExpansion(t *testing.T) {
	s := mustParse(t, specJSON)
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	// Last axis fastest: strategy=nearest holds while radius cycles.
	wantLabels := []string{
		"strategy=nearest,radius=2", "strategy=nearest,radius=3",
		"strategy=two-choices,radius=2", "strategy=two-choices,radius=3",
	}
	for i, p := range pts {
		if p.Label != wantLabels[i] {
			t.Fatalf("point %d label %q, want %q", i, p.Label, wantLabels[i])
		}
		if p.Index != i {
			t.Fatalf("point %d has Index %d", i, p.Index)
		}
		if p.Config.Seed != 99 {
			t.Fatalf("point %d seed %d, want 99", i, p.Config.Seed)
		}
	}

	shards, err := s.Shards()
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 4*3 {
		t.Fatalf("got %d shards, want 12", len(shards))
	}
	seen := map[string]bool{}
	for i, sh := range shards {
		if seen[sh.Key] {
			t.Fatalf("duplicate shard key %.12s", sh.Key)
		}
		seen[sh.Key] = true
		if sh.Point != i/3 || sh.Block != i%3 {
			t.Fatalf("shard %d is (point %d, block %d), want (%d, %d)", i, sh.Point, sh.Block, i/3, i%3)
		}
		if sh.Lo >= sh.Hi || sh.Hi > 6 {
			t.Fatalf("shard %d range [%d,%d) out of bounds", i, sh.Lo, sh.Hi)
		}
	}
}

func TestParseSpecDefaults(t *testing.T) {
	s := mustParse(t, `{"trials": 4, "base": {"side": 5, "k": 10, "m": 1}}`)
	if s.Name != "sweep" || s.Seed != 2017 || s.Blocks != 4 {
		t.Fatalf("defaults wrong: name=%q seed=%d blocks=%d", s.Name, s.Seed, s.Blocks)
	}
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Label != "base" {
		t.Fatalf("axis-free spec: %d points, label %q", len(pts), pts[0].Label)
	}
}

func TestParseSpecRejects(t *testing.T) {
	for name, src := range map[string]string{
		"empty":            ``,
		"junk":             `not json`,
		"trailing":         `{"trials":1,"base":{"side":5,"k":10,"m":1}} extra`,
		"unknown field":    `{"trials":1,"nope":1,"base":{"side":5,"k":10,"m":1}}`,
		"no trials":        `{"base":{"side":5,"k":10,"m":1}}`,
		"huge trials":      `{"trials":9999999,"base":{"side":5,"k":10,"m":1}}`,
		"blocks>trials":    `{"trials":2,"blocks":5,"base":{"side":5,"k":10,"m":1}}`,
		"neg blocks":       `{"trials":2,"blocks":-1,"base":{"side":5,"k":10,"m":1}}`,
		"huge side":        `{"trials":1,"base":{"side":99999,"k":10,"m":1}}`,
		"zero k":           `{"trials":1,"base":{"side":5,"k":0,"m":1}}`,
		"unknown axis":     `{"trials":1,"base":{"side":5,"k":10,"m":1},"axes":[{"field":"zzz","values":[1]}]}`,
		"dup axis":         `{"trials":1,"base":{"side":5,"k":10,"m":1},"axes":[{"field":"m","values":[1]},{"field":"m","values":[2]}]}`,
		"empty axis":       `{"trials":1,"base":{"side":5,"k":10,"m":1},"axes":[{"field":"m","values":[]}]}`,
		"type mismatch":    `{"trials":1,"base":{"side":5,"k":10,"m":1},"axes":[{"field":"m","values":["two"]}]}`,
		"frac int":         `{"trials":1,"base":{"side":5,"k":10,"m":1},"axes":[{"field":"m","values":[1.5]}]}`,
		"bad strategy":     `{"trials":1,"base":{"side":5,"k":10,"m":1,"strategy":"wat"}}`,
		"engine invalid":   `{"trials":1,"base":{"side":5,"k":10,"m":1,"workers":3,"chunk":7}}`,
		"world budget":     `{"trials":1,"base":{"side":4096,"k":10,"m":1048576}}`,
		"huge rate":        `{"trials":1,"base":{"side":5,"k":10,"m":1,"churn":"replicas","churn_rate":1e300}}`,
		"neg radius":       `{"trials":1,"base":{"side":5,"k":10,"m":1,"strategy":"two-choices","radius":-7}}`,
		"neg choices":      `{"trials":1,"base":{"side":5,"k":10,"m":1,"strategy":"two-choices","radius":2,"choices":-3}}`,
		"beta over 1":      `{"trials":1,"base":{"side":5,"k":10,"m":1,"strategy":"two-choices","radius":2,"beta":5}}`,
		"axis radius":      `{"trials":1,"base":{"side":5,"k":10,"m":1,"strategy":"oracle"},"axes":[{"field":"radius","values":[2,-7]}]}`,
		"churn, 1 chunk":   `{"trials":1,"base":{"side":5,"k":10,"m":1,"churn":"replicas","churn_rate":0.5}}`,
		"fault, 1 chunk":   `{"trials":1,"base":{"side":5,"k":10,"m":1,"miss":"escalate","faults":"crash","fault_rate":0.01,"requests":1024}}`,
		"axis requests":    `{"trials":1,"base":{"side":5,"k":10,"m":1,"churn":"drift","churn_rate":0.5},"axes":[{"field":"requests","values":[4096,512]}]}`,
		"axis case":        `{"trials":1,"base":{"side":5,"k":10,"m":1},"axes":[{"field":"SIDE","values":[6]}]}`,
		"axis null":        `{"trials":1,"base":{"side":5,"k":10,"m":1},"axes":[{"field":"m","values":[null]}]}`,
		"frac radius":      `{"trials":1,"base":{"side":5,"k":10,"m":1,"strategy":"two-choices"},"axes":[{"field":"radius","values":[2.5]}]}`,
		"huge int":         `{"trials":1,"base":{"side":5,"k":10,"m":1},"axes":[{"field":"m","values":[1e30]}]}`,
		"bad hetero":       `{"trials":1,"base":{"side":5,"k":10,"m":1,"hetero":"some"}}`,
		"bad profile":      `{"trials":1,"base":{"side":5,"k":10,"m":1,"hetero":"capacity"},"axes":[{"field":"profile","values":["flat"]}]}`,
		"arrival, 1 chunk": `{"trials":1,"base":{"side":5,"k":10,"m":1,"miss":"escalate","hetero":"arrival","arrival_rate":0.01}}`,
		"dead axes":        `{"trials":1,"base":{"side":5,"k":10,"m":1,"strategy":"oracle"},"axes":[{"field":"choices","values":[2,5]},{"field":"beta","values":[0,0.5]}]}`,
		"dead radius":      `{"trials":1,"base":{"side":5,"k":10,"m":1},"axes":[{"field":"radius","values":[2,3]}]}`,
	} {
		if _, err := ParseSpec([]byte(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestParseSpecNamesDeadAxis: an axis over a strategy field that no
// expanded point's strategy reads is rejected by its name, and one that
// some point reads is accepted.
func TestParseSpecNamesDeadAxis(t *testing.T) {
	for _, tc := range []struct{ dead, src string }{
		{"choices", `{"trials":1,"base":{"side":5,"k":10,"m":1,"strategy":"oracle"},"axes":[{"field":"choices","values":[2,5]},{"field":"beta","values":[0,0.5]}]}`},
		{"radius", `{"trials":1,"base":{"side":5,"k":10,"m":1},"axes":[{"field":"radius","values":[2,3]}]}`},
		{"", `{"trials":1,"base":{"side":5,"k":10,"m":1},"axes":[{"field":"strategy","values":["nearest","two-choices"]},{"field":"radius","values":[2,3]},{"field":"beta","values":[0,0.5]}]}`},
	} {
		_, err := ParseSpec([]byte(tc.src))
		if tc.dead == "" {
			if err != nil {
				t.Errorf("live axes rejected: %v", err)
			}
		} else if err == nil || !strings.Contains(err.Error(), `"`+tc.dead+`"`) {
			t.Errorf("dead %s axis: err = %v, want it named", tc.dead, err)
		}
	}
}

// TestParseSpecRefusesWithoutReplacement: Strategy II draws its
// candidates with replacement only, so a spec naming the distinct-draw
// knob it once had, in its base or as an axis, is refused by name.
func TestParseSpecRefusesWithoutReplacement(t *testing.T) {
	for _, src := range []string{
		`{"trials":1,"base":{"side":5,"k":10,"m":1,"strategy":"two-choices","radius":2,"without_replacement":true}}`,
		`{"trials":1,"base":{"side":5,"k":10,"m":1,"strategy":"two-choices","radius":2,"without_replacement":false}}`,
		`{"trials":1,"base":{"side":5,"k":10,"m":1,"strategy":"two-choices","radius":2},"axes":[{"field":"without_replacement","values":[false,true]}]}`,
	} {
		if _, err := ParseSpec([]byte(src)); err == nil || !strings.Contains(err.Error(), `"without_replacement"`) {
			t.Errorf("%s: err = %v, want a refusal naming without_replacement", src, err)
		}
	}
}

// TestParseSpecRefusesRacyShard: the scheduling-dependent shard mode
// is gone, so a spec naming it, in its base or on an axis, is refused
// with an error that names the value.
func TestParseSpecRefusesRacyShard(t *testing.T) {
	for _, src := range []string{
		`{"trials":1,"base":{"side":5,"k":10,"m":1,"workers":2,"shard":"racy"}}`,
		`{"trials":1,"base":{"side":5,"k":10,"m":1,"workers":2},"axes":[{"field":"shard","values":["own","racy"]}]}`,
	} {
		if _, err := ParseSpec([]byte(src)); err == nil || !strings.Contains(err.Error(), `"racy"`) {
			t.Errorf("%s: err = %v, want a refusal naming \"racy\"", src, err)
		}
	}
	if _, err := ParseSpec([]byte(`{"trials":1,"base":{"side":5,"k":10,"m":1,"workers":2,"shard":"own"}}`)); err != nil {
		t.Errorf("own shard mode refused: %v", err)
	}
}

// TestReadsFieldMatchesConfig: readsField says a strategy reads a
// field exactly when changing that field changes the strategy's
// translated Config, so the dead-axis check follows PointSpec.Config.
func TestReadsFieldMatchesConfig(t *testing.T) {
	set := map[string]func(*sim.PointSpec){
		"radius":  func(p *sim.PointSpec) { p.Radius = 3 },
		"choices": func(p *sim.PointSpec) { p.Choices = 3 },
		"beta":    func(p *sim.PointSpec) { p.Beta = 0.5 },
	}
	for _, strategy := range []string{"nearest", "two-choices", "one-choice", "oracle"} {
		base := sim.PointSpec{Side: 8, K: 20, M: 2, Strategy: strategy, Radius: 2}
		want, err := base.Config(1)
		if err != nil {
			t.Fatal(err)
		}
		for field, apply := range set {
			p := base
			apply(&p)
			got, err := p.Config(1)
			if err != nil {
				t.Fatal(err)
			}
			if read := got != want; read != readsField(want.Strategy.Kind, field) {
				t.Errorf("%s %s: Config reads it %v, readsField says %v", strategy, field, read, !read)
			}
		}
	}
}

// TestHeteroAxes: the heterogeneity knobs sweep like every other
// sim.PointSpec field, and each expanded point translates and runs.
func TestHeteroAxes(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want []sim.CacheProfile
	}{
		{`{"trials":2,"base":{"side":8,"k":40,"m":2,"strategy":"two-choices","radius":2},
		   "axes":[{"field":"hetero","values":["capacity"]},{"field":"profile","values":["uniform","two-tier","power-law"]}]}`,
			[]sim.CacheProfile{sim.ProfileUniform, sim.ProfileTwoTier, sim.ProfilePowerLaw}},
		{`{"trials":2,"base":{"side":8,"k":40,"m":2,"strategy":"two-choices","radius":2,"miss":"escalate","requests":2048,"hetero":"arrival","profile":"power-law"},
		   "axes":[{"field":"arrival_rate","values":[0.005,0.02]}]}`,
			[]sim.CacheProfile{sim.ProfilePowerLaw, sim.ProfilePowerLaw}},
	} {
		pts, err := mustParse(t, tc.src).Points()
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(tc.want) {
			t.Fatalf("%d points, want %d", len(pts), len(tc.want))
		}
		for i, p := range pts {
			cfg := p.Config
			if cfg.Hetero == sim.HeteroNone || cfg.Profile != tc.want[i] {
				t.Errorf("%s: hetero %v profile %v, want profile %v", p.Label, cfg.Hetero, cfg.Profile, tc.want[i])
			}
			agg, err := sim.Run(cfg, 2, 1)
			if err != nil {
				t.Fatalf("%s: %v", p.Label, err)
			}
			if cfg.Hetero == sim.HeteroArrival && (cfg.ArrivalRate != p.Spec.ArrivalRate || agg.ArrivalEvents.Mean() == 0) {
				t.Errorf("%s: rate %v, %v joins per trial", p.Label, cfg.ArrivalRate, agg.ArrivalEvents.Mean())
			}
		}
	}
}

func TestSpecHashStable(t *testing.T) {
	a := mustParse(t, specJSON)
	b := mustParse(t, specJSON)
	if a.Hash() != b.Hash() {
		t.Fatal("same spec hashes differently")
	}
	c := mustParse(t, strings.Replace(specJSON, `"seed": 99`, `"seed": 100`, 1))
	if a.Hash() == c.Hash() {
		t.Fatal("different specs share a hash")
	}

	// Shard keys must be stable too: same spec, same keys.
	sa, _ := a.Shards()
	sb, _ := b.Shards()
	for i := range sa {
		if sa[i].Key != sb[i].Key {
			t.Fatalf("shard %d key unstable", i)
		}
	}
}

func TestGridCapEnforced(t *testing.T) {
	// 3 axes × 1024 values each = 2^30 points ≫ maxPoints.
	var vals strings.Builder
	for i := 0; i < 1024; i++ {
		if i > 0 {
			vals.WriteByte(',')
		}
		vals.WriteString("1")
	}
	src := `{"trials":1,"base":{"side":5,"k":10,"m":1},"axes":[` +
		`{"field":"m","values":[` + vals.String() + `]},` +
		`{"field":"k","values":[` + vals.String() + `]},` +
		`{"field":"side","values":[` + vals.String() + `]}]}`
	if _, err := ParseSpec([]byte(src)); err == nil {
		t.Fatal("10^9-point grid accepted")
	}
}
