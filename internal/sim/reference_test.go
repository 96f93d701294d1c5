package sim

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/workload"
)

// referenceTrial is a brute-force Strategy II (and one-choice, (1+β) /
// oracle) trial: trial t's placement and split request streams, exactly
// as RunTrial draws them, assigned by scanning every replica of the file
// with grid.Dist, drawing d candidates uniformly from those within r
// (distinct under WithoutReplacement; one with probability 1−β under a
// Beta in (0, 1)) and taking the least loaded, ties uniform. Its own rng
// draws the candidates and the β coin, so it matches the engine in law,
// not trajectory. Homogeneous, fault-free, churn-free worlds only.
func referenceTrial(w *World, t uint64, rng *rand.Rand) Result {
	cfg, g, n := w.cfg, w.g, w.g.N()
	var placeRNG reseedRand
	p := cache.NewPlacer(n, cfg.M, cfg.K).Place(w.placeProfile, cfg.PlacementMode, placeRNG.stream(w.placeSrc, t))
	pop := w.pop
	if cfg.MissPolicy == MissResample && p.UncachedCount() > 0 {
		weights := make([]float64, cfg.K)
		for _, j := range p.CachedFiles() {
			weights[j] = w.pop.P(int(j))
		}
		pop = dist.NewCustom(weights, w.condName)
	}
	origins, files := make([]int32, w.nReq), make([]int32, w.nReq)
	originRNG, fileRNG := w.RequestStream(t)
	dist.RequestBatch(originRNG, fileRNG, n, pop, origins, files)

	sp := cfg.Strategy
	d := max(sp.Choices, 2)
	if sp.Kind == OneChoiceRandom {
		d = 1
	}
	radius := sp.Radius
	if radius < 0 || radius >= g.Diameter() {
		radius = g.Diameter()
	}
	noEscalate := cfg.MissPolicy == MissOrigin
	loads := make([]int, n)
	res := Result{Requests: w.nReq, Uncached: p.UncachedCount()}
	var hops float64
	var pool, cand []int32
	for i, u := range origins {
		reps := p.Replicas(int(files[i]))
		pool = pool[:0]
		for _, v := range reps {
			if g.Dist(int(u), int(v)) <= radius {
				pool = append(pool, v)
			}
		}
		server := u
		switch {
		case len(reps) == 0, len(pool) == 0 && noEscalate:
			res.Backhaul++
		default:
			if len(pool) == 0 {
				pool = append(pool, reps...)
				res.Escalated++
			}
			dr := d
			if sp.Beta > 0 && sp.Beta < 1 && rng.Float64() >= sp.Beta {
				dr = 1 // the (1+β) process's one-choice round
			}
			switch {
			case sp.Kind == Oracle || sp.WithoutReplacement && dr >= len(pool):
				cand = append(cand[:0], pool...)
			case sp.WithoutReplacement:
				for k := 0; k < dr; k++ { // partial Fisher–Yates
					j := k + rng.IntN(len(pool)-k)
					pool[k], pool[j] = pool[j], pool[k]
				}
				cand = append(cand[:0], pool[:dr]...)
			default:
				cand = cand[:0]
				for range dr {
					cand = append(cand, pool[rng.IntN(len(pool))])
				}
			}
			best, ties := cand[0], 1
			for _, v := range cand[1:] {
				switch lv, lb := loads[v], loads[best]; {
				case lv < lb:
					best, ties = v, 1
				case lv == lb:
					if ties++; rng.IntN(ties) == 0 {
						best = v
					}
				}
			}
			server = best
			hops += float64(g.Dist(int(u), int(server)))
		}
		loads[server]++
	}
	res.MaxLoad = slices.Max(loads)
	res.MeanCost = hops / float64(w.nReq)
	return res
}

// referenceConfigs span the reference comparison: torus and bounded
// grid, Zipf with dense files, d = 4 without replacement, one-choice, the
// (1+β) process, the oracle (escalating and backhauling), and all three
// miss policies.
var referenceConfigs = []struct {
	name string
	cfg  Config
}{
	{"torus/resample", Config{Side: 16, K: 60, M: 4, Seed: 0x63, Strategy: StrategySpec{Kind: TwoChoices, Radius: 4}}},
	{"grid/escalate", Config{Side: 12, K: 150, M: 2, Seed: 0x63, Topology: grid.Bounded, MissPolicy: MissEscalate, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}}},
	{"zipf/origin", Config{Side: 12, K: 150, M: 2, Seed: 0x63, Popularity: PopSpec{Kind: PopZipf, Gamma: 1.2}, MissPolicy: MissOrigin, Strategy: StrategySpec{Kind: TwoChoices, Radius: 3}}},
	{"d4-distinct", Config{Side: 12, K: 100, M: 2, Seed: 0x7, Strategy: StrategySpec{Kind: TwoChoices, Radius: 4, Choices: 4, WithoutReplacement: true}}},
	{"one-choice", Config{Side: 12, K: 150, M: 2, Seed: 0x63, Strategy: StrategySpec{Kind: OneChoiceRandom, Radius: 3}}},
	{"beta", Config{Side: 16, K: 60, M: 4, Seed: 0x63, Strategy: StrategySpec{Kind: TwoChoices, Radius: 4, Beta: 0.5}}},
	{"oracle", Config{Side: 12, K: 150, M: 2, Seed: 0x63, Strategy: StrategySpec{Kind: Oracle, Radius: 3}}},
	{"oracle/origin", Config{Side: 12, K: 150, M: 2, Seed: 0x63, MissPolicy: MissOrigin, Strategy: StrategySpec{Kind: Oracle, Radius: 3}}},
}

// referencePValues compares engine (RunTrial of cfg) against the
// reference over trials. Trial t of both shares its placement and
// requests, so their escalation, backhaul and uncached counts must agree
// exactly (RNG-free given those); the law comparison pairs engine trials
// [trials, 2·trials) with reference trials [0, trials), which are
// independent samples. It returns the chi² homogeneity p-value of the
// MaxLoad histograms and the two-sample KS p-value of MeanCost.
func referencePValues(t *testing.T, cfg Config, trials int) (chi2P, ksP float64) {
	w, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := w.NewRunner()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5eed))
	var engLoad, refLoad []int
	var engCost, refCost []float64
	for i := range trials {
		ref := referenceTrial(w, uint64(i), rng)
		eng := r.RunTrial(uint64(i))
		if eng.Escalated != ref.Escalated || eng.Backhaul != ref.Backhaul || eng.Uncached != ref.Uncached || eng.Requests != ref.Requests {
			t.Fatalf("trial %d: engine %+v and reference %+v disagree on RNG-free counts", i, eng, ref)
		}
		eng = r.RunTrial(uint64(trials + i))
		engLoad, refLoad = append(engLoad, eng.MaxLoad), append(refLoad, ref.MaxLoad)
		engCost, refCost = append(engCost, eng.MeanCost), append(refCost, ref.MeanCost)
	}
	return chi2Homogeneity(engLoad, refLoad), ksTwoSample(engCost, refCost)
}

// TestReferenceMatchesRunTrial: the engine's Strategy II law equals the
// brute-force reference on every reference configuration. The seeds are
// fixed, so the p-values are too (docs/perf.md records them); 1e-3 is a
// Bonferroni-style floor over the sixteen tests.
func TestReferenceMatchesRunTrial(t *testing.T) {
	for _, rc := range referenceConfigs {
		chi2P, ksP := referencePValues(t, rc.cfg, 200)
		t.Logf("%-16s MaxLoad chi² p=%.3f  MeanCost KS p=%.3f", rc.name, chi2P, ksP)
		if chi2P < 1e-3 || ksP < 1e-3 {
			t.Errorf("%s: engine law departs from the reference (chi² p=%.2g, KS p=%.2g)", rc.name, chi2P, ksP)
		}
	}
}

// chi2Homogeneity is the two-sample chi² homogeneity test over integer
// histograms, with adjacent values pooled until every bin expects ≥ 5.
func chi2Homogeneity(a, b []int) float64 {
	hist := map[int][2]float64{}
	for s, xs := range [][]int{a, b} {
		for _, x := range xs {
			h := hist[x]
			h[s]++
			hist[x] = h
		}
	}
	keys := slices.Sorted(maps.Keys(hist))
	na, nb := float64(len(a)), float64(len(b))
	var bins [][2]float64
	var acc [2]float64
	for i, k := range keys {
		acc[0] += hist[k][0]
		acc[1] += hist[k][1]
		if (acc[0]+acc[1])*min(na, nb)/(na+nb) >= 5 || i == len(keys)-1 {
			bins = append(bins, acc)
			acc = [2]float64{}
		}
	}
	if len(bins) > 1 && (bins[len(bins)-1][0]+bins[len(bins)-1][1])*min(na, nb)/(na+nb) < 5 {
		last := bins[len(bins)-1]
		bins = bins[:len(bins)-1]
		bins[len(bins)-1][0] += last[0]
		bins[len(bins)-1][1] += last[1]
	}
	if len(bins) < 2 {
		return 1
	}
	var stat float64
	for _, o := range bins {
		tot := o[0] + o[1]
		for s, ns := range [2]float64{na, nb} {
			e := tot * ns / (na + nb)
			stat += (o[s] - e) * (o[s] - e) / e
		}
	}
	return gammaQ(float64(len(bins)-1)/2, stat/2)
}

// gammaQ is the regularized upper incomplete gamma function Q(a, x): a
// series below a+1, Lentz's continued fraction above.
func gammaQ(a, x float64) float64 {
	if x <= 0 {
		return 1
	}
	lg, _ := math.Lgamma(a)
	pre := math.Exp(-x + a*math.Log(x) - lg)
	if x < a+1 {
		sum, del := 1/a, 1/a
		for ap := a + 1; math.Abs(del) > 1e-15*math.Abs(sum); ap++ {
			del *= x / ap
			sum += del
		}
		return 1 - sum*pre
	}
	const tiny = 1e-300
	b := x + 1 - a
	c, d := 1/tiny, 1/b
	h := d
	for i := 1.0; i < 1000; i++ {
		an := -i * (i - a)
		b += 2
		if d = an*d + b; math.Abs(d) < tiny {
			d = tiny
		}
		if c = b + an/c; math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		if math.Abs(d*c-1) < 1e-15 {
			break
		}
	}
	return pre * h
}

// ksTwoSample is the two-sample Kolmogorov–Smirnov p-value (asymptotic
// distribution with Stephens' small-sample correction).
func ksTwoSample(a, b []float64) float64 {
	a, b = slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b))
	var dmax float64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		x := min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		dmax = max(dmax, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	ne := math.Sqrt(float64(len(a)*len(b)) / float64(len(a)+len(b)))
	lambda := (ne + 0.12 + 0.11/ne) * dmax
	if lambda < 1.18 { // the small-λ form of the Kolmogorov CDF converges fast here
		if lambda == 0 {
			return 1
		}
		y := math.Exp(-math.Pi * math.Pi / (8 * lambda * lambda))
		return 1 - math.Sqrt(2*math.Pi)/lambda*(y+math.Pow(y, 9)+math.Pow(y, 25)+math.Pow(y, 49))
	}
	x := math.Exp(-2 * lambda * lambda)
	return 2 * (x - math.Pow(x, 4) + math.Pow(x, 9))
}

// churnModel is a brute-force replica of the churn schedule: per-node
// file lists, each S_j a plain list re-sorted by the tiling key after
// every event, and a drawn arena slot resolved by walking the files in
// order. It replays churnState.apply's draws from the trial's churn
// stream. Only the ChurnDrift file sampler's builder (a
// dist.CustomBuilder over the drifter's weights) is the engine's own,
// since the sampler is not what the model checks; which files it
// conditions on, and when, is the model's.
type churnModel struct {
	w      *World
	files  [][]int32 // per node, ascending
	reps   [][]int32 // per file, ascending by key
	caps   []int
	vacant []bool

	credit          float64
	drift           *workload.Drifter
	cond            *dist.CustomBuilder
	pop             dist.Popularity
	events, skipped int
	swaps           int // events that displaced a file back to the source
}

// newChurnModel copies snapshot s's node lists, capacities and vacancies
// and builds every S_j from the node lists.
func newChurnModel(s *Snapshot) *churnModel {
	w, p := s.w, s.p
	n, k := w.g.N(), w.cfg.K
	m := &churnModel{w: w, files: make([][]int32, n), reps: make([][]int32, k), caps: make([]int, n), vacant: make([]bool, n)}
	for u := range n {
		m.caps[u] = p.Cap(u)
		if s.heteroSt.vacant != nil {
			m.vacant[u] = s.heteroSt.vacant[u]
		}
		m.join(int32(u), p.NodeFiles(u))
	}
	if w.cfg.Churn == ChurnDrift {
		m.drift = workload.NewDrifter(k, churnDriftBoost, churnDriftBirth, churnDriftLifespan)
		m.cond = dist.NewCustomBuilder(k)
	}
	return m
}

// join gives node u the files fs and enters u into each of their S_j.
func (m *churnModel) join(u int32, fs []int32) {
	m.files[u] = slices.Sorted(slices.Values(fs))
	for _, j := range fs {
		m.reps[j] = append(m.reps[j], u)
		m.sortReps(int(j))
	}
}

// sortReps re-sorts S_j by the placement key: (TileOf(v), v) under the
// world's tiling, v without one.
func (m *churnModel) sortReps(j int) {
	tl := m.w.tiling
	slices.SortFunc(m.reps[j], func(a, b int32) int {
		if tl != nil && tl.TileOf(a) != tl.TileOf(b) {
			return int(tl.TileOf(a) - tl.TileOf(b))
		}
		return int(a - b)
	})
}

// syncArrivals adopts the nodes the engine's arrival phase just filled.
// Their draws belong to the arrival process, which the model does not
// replay.
func (m *churnModel) syncArrivals(s *Snapshot) {
	for u, was := range m.vacant {
		if was && !s.heteroSt.vacant[u] {
			m.vacant[u] = false
			m.join(int32(u), s.p.NodeFiles(u))
		}
	}
}

// move takes file j from node from and gives it to node to.
func (m *churnModel) move(j int, from, to int32) {
	jj := int32(j)
	m.files[from] = slices.DeleteFunc(m.files[from], func(f int32) bool { return f == jj })
	m.files[to] = append(m.files[to], jj)
	slices.Sort(m.files[to])
	for i, v := range m.reps[j] {
		if v == from {
			m.reps[j][i] = to
		}
	}
	m.sortReps(j)
}

// apply replays one barrier of c requests: the engine's event schedule,
// decided on the model's own lists.
func (m *churnModel) apply(rng *rand.Rand, c int) {
	m.credit += m.w.cfg.ChurnRate * float64(c)
	slots := 0
	for _, r := range m.reps {
		slots += len(r)
	}
	if m.drift != nil {
		// The sampler is rebuilt at every barrier from the model's own
		// cached set, with no dirty flag to trust.
		m.drift.Step(rng)
		if slots > 0 {
			weights := make([]float64, len(m.reps))
			for j, r := range m.reps {
				if len(r) > 0 {
					weights[j] = m.drift.Weights()[j]
				}
			}
			m.pop = m.cond.Build(weights, "churn-drift")
		}
	}
	n := m.w.g.N()
	for ; m.credit >= 1; m.credit-- {
		if slots == 0 {
			m.skipped++
			continue
		}
		var j int
		var u int32
		if m.drift == nil {
			s := rng.IntN(slots)
			for len(m.reps[j]) <= s {
				s -= len(m.reps[j])
				j++
			}
			u = m.reps[j][s]
		} else {
			j = m.pop.Sample(rng)
			u = m.reps[j][rng.IntN(len(m.reps[j]))]
		}
		v := int32(rng.IntN(n))
		if v == u || slices.Contains(m.files[v], int32(j)) || m.vacant[v] {
			m.skipped++
			continue
		}
		if len(m.files[v]) < m.caps[v] {
			m.move(j, u, v)
			m.events++
			continue
		}
		j2 := int(m.files[v][rng.IntN(len(m.files[v]))])
		if slices.Contains(m.files[u], int32(j2)) {
			m.skipped++
			continue
		}
		m.move(j, u, v)
		m.move(j2, v, u)
		m.events++
		m.swaps++
	}
}

// TestChurnMatchesReference replays the churn schedule of snapshot
// eras, barrier by barrier, on the brute-force churnModel: after every
// barrier the engine's node lists, every S_j and both event counters
// must equal the model's. It covers both churn modes, untiled and tiled
// placements (Zipf, so the tiled ones hold dense files), uniform and
// power-law capacities, and vacant nodes that join mid-era.
func TestChurnMatchesReference(t *testing.T) {
	const barriers, chunk = 12, 256
	for _, mode := range []ChurnMode{ChurnReplicas, ChurnDrift} {
		for _, radius := range []int{-1, 3} {
			for _, hetero := range []HeteroMode{HeteroNone, HeteroCapacity, HeteroArrival} {
				cfg := Config{Side: 12, K: 60, M: 3, Seed: 0xC4,
					Popularity: PopSpec{Kind: PopZipf, Gamma: 1.0},
					Strategy:   StrategySpec{Kind: TwoChoices, Radius: radius},
					MissPolicy: MissEscalate,
					Churn:      mode, ChurnRate: 0.5,
					Hetero: hetero,
				}
				if hetero != HeteroNone {
					cfg.Profile = ProfilePowerLaw
				}
				if hetero == HeteroArrival {
					cfg.ArrivalRate = 0.01
				}
				w, err := Compile(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if (w.tiling != nil) != (radius >= 0) {
					t.Fatalf("radius %d: tiling %v", radius, w.tiling != nil)
				}
				for era := range uint64(2) {
					name := fmt.Sprintf("%v/r=%d/%v/era%d", mode, radius, hetero, era)
					s := w.Snapshot(era)
					if ix := s.p.TileIndex(); ix != nil && !slices.ContainsFunc(s.p.CachedFiles(), func(j int32) bool { return ix.FileBits(int(j)) != nil }) {
						t.Fatalf("%s: no dense file; the tiled fixture must hold one", name)
					}
					m := newChurnModel(s)
					var rr reseedRand
					rng := rr.stream(w.churnSrc, era)
					for b := range barriers {
						if hetero == HeteroArrival {
							s.heteroSt.applyArrivals(w, s.placer, nil, s.hetero.r, chunk, &s.ev.ArrivalEvents, &s.ev.ArrivalSkipped)
							m.syncArrivals(s)
						}
						s.churnSt.apply(w, s.p, s.churn.r, chunk, &s.ev.ChurnEvents, &s.ev.ChurnSkipped)
						m.apply(rng, chunk)
						if s.ev.ChurnEvents != m.events || s.ev.ChurnSkipped != m.skipped {
							t.Fatalf("%s barrier %d: engine %d events %d skipped, reference %d and %d",
								name, b, s.ev.ChurnEvents, s.ev.ChurnSkipped, m.events, m.skipped)
						}
						for u := range w.g.N() {
							if !slices.Equal(s.p.NodeFiles(u), m.files[u]) {
								t.Fatalf("%s barrier %d: node %d caches %v, reference %v", name, b, u, s.p.NodeFiles(u), m.files[u])
							}
						}
						for j := range cfg.K {
							if !slices.Equal(s.p.Replicas(j), m.reps[j]) {
								t.Fatalf("%s barrier %d: S_%d = %v, reference %v", name, b, j, s.p.Replicas(j), m.reps[j])
							}
						}
					}
					if m.swaps == 0 || m.swaps == m.events || m.skipped == 0 {
						t.Fatalf("%s: %d events (%d swaps), %d skipped; the comparison is vacuous", name, m.events, m.swaps, m.skipped)
					}
				}
			}
		}
	}
}
