// CDN scenario: a regional content-delivery deployment with a Zipf video
// catalog (the workload the paper's introduction motivates). The example
// composes the low-level public API directly — topology, placement,
// strategy, per-request loop — and reports the load distribution a
// capacity planner would look at, for three dispatch policies.
package main

import (
	"fmt"
	"sort"

	"repro"
)

func main() {
	const (
		side  = 40   // 1600 edge caches in a metro torus
		k     = 5000 // video catalog
		m     = 50   // videos pinned per cache
		gamma = 0.9  // YouTube-like popularity skew
	)
	g := repro.NewGrid(side, repro.Torus)
	pop := repro.NewZipf(k, gamma)
	src := repro.RandomSource(7)
	placement := repro.Place(g.N(), m, pop, repro.WithReplacement, src.Stream(0))

	fmt.Printf("CDN: %d caches, %d videos, %d slots each, Zipf(%.1f)\n", g.N(), k, m, gamma)
	fmt.Printf("catalog coverage: %d/%d videos have at least one replica\n\n",
		len(placement.CachedFiles()), k)

	policies := []struct {
		name  string
		strat repro.Strategy
	}{
		{"nearest replica", repro.NewNearestReplica(g, placement)},
		{"2 choices within 8 hops", repro.NewTwoChoice(g, placement,
			repro.TwoChoiceConfig{Radius: 8})},
		{"2 choices unbounded", repro.NewTwoChoice(g, placement,
			repro.TwoChoiceConfig{Radius: repro.RadiusUnbounded})},
	}
	for idx, pol := range policies {
		loads := repro.NewLoads(g.N())
		// Every policy serves the same request sequence; its own picks
		// draw from a stream of their own, so a policy that draws more
		// words leaves the requests as they are.
		reqs := src.Stream(1)
		picks := src.Stream(2 + uint64(idx))
		var hops float64
		misses := 0
		for i := 0; i < g.N(); i++ { // one request per cache on average
			req := repro.Request{
				Origin: int32(reqs.IntN(g.N())),
				File:   int32(pop.Sample(reqs)),
			}
			a := pol.strat.Assign(req, loads, picks)
			loads.Add(int(a.Server))
			hops += float64(a.Hops)
			if a.Backhaul {
				misses++
			}
		}
		hist := loads.Histogram()
		fmt.Printf("policy: %s\n", pol.name)
		fmt.Printf("  max load %d, mean cost %.2f hops, backhaul %d/%d\n",
			loads.Max(), hops/float64(g.N()), misses, g.N())
		fmt.Printf("  load histogram (load:caches): %s\n\n", renderHist(hist))
	}
}

// renderHist compacts a load histogram into "load:count" pairs.
func renderHist(h []int) string {
	type kv struct{ load, count int }
	var rows []kv
	for load, count := range h {
		if count > 0 {
			rows = append(rows, kv{load, count})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].load < rows[j].load })
	s := ""
	for i, r := range rows {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d:%d", r.load, r.count)
	}
	return s
}
