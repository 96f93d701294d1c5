// Package confgraph builds the configuration graph H of Definition 4:
// servers are vertices, and u ~ v iff they cache a common file and lie
// within torus distance 2r of each other. Lemma 3 proves that (conditioned
// on the goodness property) H is almost Δ-regular with Δ = Θ(M²r²/K) and
// that Strategy II samples edges of H with probability O(1/e(H)) — the
// preconditions of Theorem 5. This package computes H exactly so those
// claims can be validated empirically.
package confgraph

import (
	"math"

	"repro/internal/ballsbins"
	"repro/internal/cache"
	"repro/internal/grid"
	"repro/internal/stats"
)

// Graph is the materialized configuration graph.
type Graph struct {
	Nodes   int
	Degrees []int32
	Edges   [][2]int32 // u < v, each undirected edge once
}

// Build constructs H for the given placement and proximity parameter r.
// Cost is O(n·|B_2r|·avg t) — intended for n up to a few thousand; the
// experiment harness uses it at paper Fig. 5 scale (n = 2025).
func Build(g *grid.Grid, p *cache.Placement, r int) *Graph {
	n := g.N()
	h := &Graph{Nodes: n, Degrees: make([]int32, n)}
	reach := 2 * r
	var ball []int32
	for u := 0; u < n; u++ {
		ball = g.Ball(u, reach, ball[:0])
		for _, v32 := range ball {
			v := int(v32)
			if v <= u {
				continue // each unordered pair once
			}
			if p.TPair(u, v) > 0 {
				h.Edges = append(h.Edges, [2]int32{int32(u), int32(v)})
				h.Degrees[u]++
				h.Degrees[v]++
			}
		}
	}
	return h
}

// NumEdges returns e(H).
func (h *Graph) NumEdges() int { return len(h.Edges) }

// NumNodes implements ballsbins.EdgeGraph.
func (h *Graph) NumNodes() int { return h.Nodes }

// Edge implements ballsbins.EdgeGraph, so the Theorem 5 allocation process
// can run directly on H.
func (h *Graph) Edge(i int) (int, int) { return int(h.Edges[i][0]), int(h.Edges[i][1]) }

var _ ballsbins.EdgeGraph = (*Graph)(nil)

// DegreeStats summarizes the regularity structure Lemma 3(a) predicts.
type DegreeStats struct {
	Mean      float64
	Min, Max  int
	CV        float64 // coefficient of variation σ/µ; ≈ 0 for regular graphs
	Isolated  int     // nodes with degree 0
	NumEdges  int
	PredDelta float64 // Lemma 3's Δ = M²·|B_2r|/K prediction (unit constant)
}

// Stats computes degree statistics and the Lemma 3 Δ-prediction.
func (h *Graph) Stats(g *grid.Grid, p *cache.Placement, r int) DegreeStats {
	var s stats.Summary
	ds := DegreeStats{Min: math.MaxInt}
	for _, d := range h.Degrees {
		s.Add(float64(d))
		if int(d) < ds.Min {
			ds.Min = int(d)
		}
		if int(d) > ds.Max {
			ds.Max = int(d)
		}
		if d == 0 {
			ds.Isolated++
		}
	}
	ds.Mean = s.Mean()
	if s.Mean() > 0 {
		ds.CV = s.Std() / s.Mean()
	}
	ds.NumEdges = h.NumEdges()
	m, k := float64(p.M()), float64(p.K())
	ds.PredDelta = m * m * float64(g.BallSize(2*r)) / k
	return ds
}
