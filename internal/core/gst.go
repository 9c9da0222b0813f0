package core

import (
	"container/heap"

	"newslink/internal/kg"
)

// ExactGST computes the optimal Group Steiner Tree cost for a set of entity
// labels: the minimum total edge weight of a connected subgraph touching at
// least one node of every label group. The paper discusses GST as the
// classic subgraph-extraction model (Section II) and rejects it for being
// NP-hard; this exact solver — a Dreyfus-Wagner style dynamic program over
// label subsets, O(3^m·n + 2^m·(n+e)·log n) — exists as a *reference* to
// quantify how far the tractable models (TreeEmb's 1-star approximation,
// and G*'s coverage overhead) are from the optimum on small instances.
//
// It returns ok=false when some label has no node or no connected solution
// exists, and refuses instances with more than MaxGSTLabels labels or
// graphs larger than maxNodes (0 = no node bound) to keep the exponential
// DP honest about its limits.
func ExactGST(g *kg.Graph, labels []string, maxNodes int) (cost float64, ok bool) {
	if maxNodes > 0 && g.NumNodes() > maxNodes {
		return 0, false
	}
	// Resolve labels to source sets, deduplicated like the G* search.
	seen := map[string]bool{}
	var groups [][]kg.NodeID
	for _, l := range labels {
		key := kg.Fold(l)
		if seen[key] {
			continue
		}
		sources := g.Lookup(key)
		if len(sources) == 0 {
			continue
		}
		seen[key] = true
		groups = append(groups, sources)
	}
	m := len(groups)
	if m == 0 || m > MaxGSTLabels {
		return 0, false
	}
	n := g.NumNodes()
	full := uint32(1)<<m - 1
	// dp[S][v] = min weight of a tree containing v and touching every label
	// group in S.
	dp := make([][]float64, full+1)
	for s := range dp {
		dp[s] = make([]float64, n)
		for v := range dp[s] {
			dp[s][v] = inf
		}
	}
	for i, sources := range groups {
		s := uint32(1) << i
		for _, v := range sources {
			dp[s][v] = 0
		}
		dijkstraRelax(g, dp[s])
	}
	for s := uint32(1); s <= full; s++ {
		if s&(s-1) == 0 {
			continue // singletons already done
		}
		row := dp[s]
		// Merge: split S into two non-empty disjoint subsets at v.
		for sub := (s - 1) & s; sub > 0; sub = (sub - 1) & s {
			if sub > s^sub {
				continue // each split once
			}
			a, b := dp[sub], dp[s^sub]
			for v := 0; v < n; v++ {
				if c := a[v] + b[v]; c < row[v] {
					row[v] = c
				}
			}
		}
		// Grow: relax along edges (a Dijkstra pass seeded with row).
		dijkstraRelax(g, row)
	}
	best := inf
	for v := 0; v < n; v++ {
		if dp[full][v] < best {
			best = dp[full][v]
		}
	}
	if best == inf {
		return 0, false
	}
	return best, true
}

// MaxGSTLabels bounds the exponential DP of ExactGST.
const MaxGSTLabels = 10

// dijkstraRelax runs a multi-source Dijkstra that lowers row[v] to
// min(row[v], min_u row[u] + d(u,v)) for all v.
func dijkstraRelax(g *kg.Graph, row []float64) {
	var pq frontier
	for v, d := range row {
		if d < inf {
			heap.Push(&pq, item{d, 0, kg.NodeID(v)})
		}
	}
	for pq.Len() > 0 {
		it := heap.Pop(&pq).(item)
		if it.d > row[it.v] {
			continue
		}
		for k := range g.Degree(it.v) {
			a := g.Arc(it.v, k)
			nd := it.d + a.Weight
			if nd < row[a.To] {
				row[a.To] = nd
				heap.Push(&pq, item{nd, 0, a.To})
			}
		}
	}
}

// TreeWeight returns the total weight of a subgraph's arcs in g, the
// quantity GST minimizes. For ModelTree results this is the weight of the
// approximate Steiner tree; for ModelLCAG it additionally prices the
// coverage (all preserved shortest paths).
func TreeWeight(g *kg.Graph, sg *Subgraph) float64 {
	total := 0.0
	for _, arc := range sg.Arcs {
		total += arcWeight(g, arc)
	}
	return total
}

// arcWeight looks up the weight of the KG edge an arc traverses.
func arcWeight(g *kg.Graph, arc PathArc) float64 {
	for k := range g.Degree(arc.From) {
		if a := g.Arc(arc.From, k); a.To == arc.To && a.Rel == arc.Rel && a.Reverse == arc.Reverse {
			return a.Weight
		}
	}
	return 0
}
