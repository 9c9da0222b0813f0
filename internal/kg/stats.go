package kg

import (
	"fmt"
	"strings"
)

// Stats summarizes the structure of a graph; useful for validating that the
// synthetic generator produces the structural regime the paper's Wikidata
// slice exhibits (shallow containment hierarchies, skewed degrees).
type Stats struct {
	Nodes          int
	Edges          int
	Relations      int
	DistinctLabels int
	AmbiguousLabel int // labels mapping to >1 node
	MaxDegree      int
	AvgDegree      float64
	KindCounts     map[Kind]int
	Components     int
	LargestComp    int
}

// ComputeStats walks the graph once and returns its Stats.
func ComputeStats(g *Graph) Stats {
	s := Stats{
		Nodes:      g.NumNodes(),
		Edges:      g.NumEdges(),
		Relations:  g.NumRels(),
		KindCounts: make(map[Kind]int),
	}
	totalDeg := 0
	for i := 0; i < g.NumNodes(); i++ {
		id := NodeID(i)
		d := g.Degree(id)
		totalDeg += d
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		s.KindCounts[g.Node(id).Kind]++
	}
	if s.Nodes > 0 {
		s.AvgDegree = float64(totalDeg) / float64(s.Nodes)
	}
	g.Index().Labels(func(_ string, nodes []NodeID) bool {
		s.DistinctLabels++
		if len(nodes) > 1 {
			s.AmbiguousLabel++
		}
		return true
	})
	s.Components, s.LargestComp = components(g)
	return s
}

// components counts connected components under bidirected reachability.
func components(g *Graph) (count, largest int) {
	n := g.NumNodes()
	seen := make([]bool, n)
	stack := make([]NodeID, 0, 64)
	for i := 0; i < n; i++ {
		if seen[i] {
			continue
		}
		count++
		size := 0
		stack = append(stack[:0], NodeID(i))
		seen[i] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, to := range g.Targets(v) {
				if !seen[to] {
					seen[to] = true
					stack = append(stack, to)
				}
			}
		}
		if size > largest {
			largest = size
		}
	}
	return count, largest
}

// String renders the stats as a small human-readable report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d edges=%d relations=%d\n", s.Nodes, s.Edges, s.Relations)
	fmt.Fprintf(&b, "labels=%d (ambiguous=%d) avg_degree=%.2f max_degree=%d\n",
		s.DistinctLabels, s.AmbiguousLabel, s.AvgDegree, s.MaxDegree)
	fmt.Fprintf(&b, "components=%d largest=%d\n", s.Components, s.LargestComp)
	for k := KindUnknown; k <= KindLanguage; k++ {
		if c := s.KindCounts[k]; c > 0 {
			fmt.Fprintf(&b, "  %-12s %d\n", k, c)
		}
	}
	return b.String()
}
