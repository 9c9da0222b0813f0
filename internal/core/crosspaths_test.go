package core

import (
	"context"
	"strings"
	"testing"

	"newslink/internal/kg"
)

func embed(t *testing.T, g *kg.Graph, groups ...[]string) *DocEmbedding {
	t.Helper()
	e := NewEmbedder(g, Options{})
	d := e.EmbedGroups(groups)
	if d == nil {
		t.Fatal("no embedding")
	}
	return d
}

// crossPaths is CrossPathsContext without a deadline.
func crossPaths(g *kg.Graph, a, b *DocEmbedding, la, lb string, limit int) []RelPath {
	paths, _ := CrossPathsContext(context.Background(), g, a, b, la, lb, limit)
	return paths
}

func TestCrossPathsTableII(t *testing.T) {
	g := figure1Graph()
	q := embed(t, g, []string{"upper dir", "swat valley", "pakistan", "taliban"})
	r := embed(t, g, []string{"lahore", "peshawar", "pakistan", "taliban"})
	// Table II: Upper Dir (from Tq) links to Lahore (from Tr) via Khyber.
	paths := crossPaths(g, q, r, "upper dir", "lahore", 5)
	if len(paths) == 0 {
		t.Fatal("no cross paths")
	}
	p := paths[0]
	rendered := p.Render(g)
	if !strings.HasPrefix(rendered, "Upper Dir") || !strings.HasSuffix(rendered, "Lahore") {
		t.Fatalf("endpoints wrong: %s", rendered)
	}
	if !strings.Contains(rendered, "Khyber") {
		t.Fatalf("path must pass through the shared ancestor Khyber: %s", rendered)
	}
	if len(p.Hops) != 2 {
		t.Fatalf("want the 2-hop path of Table II, got %d hops: %s", len(p.Hops), rendered)
	}
}

func TestCrossPathsShortestFirstAndLimit(t *testing.T) {
	g := figure1Graph()
	q := embed(t, g, []string{"upper dir", "taliban"})
	r := embed(t, g, []string{"peshawar", "taliban"})
	paths := crossPaths(g, q, r, "taliban", "peshawar", 10)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	for i := 1; i < len(paths); i++ {
		if len(paths[i].Hops) < len(paths[i-1].Hops) {
			t.Fatal("paths not sorted shortest-first")
		}
	}
	if got := crossPaths(g, q, r, "taliban", "peshawar", 1); len(got) != 1 {
		t.Fatalf("limit ignored: %d", len(got))
	}
	if crossPaths(g, q, r, "taliban", "peshawar", 0) != nil {
		t.Fatal("limit 0 should be nil")
	}
	if crossPaths(g, nil, r, "a", "b", 3) != nil {
		t.Fatal("nil embedding should be nil")
	}

	// One label names two nodes one hop from the target, and the limit
	// keeps one of the two paths: the lower node ID's, on every call.
	b := kg.NewBuilder(5)
	city := b.AddNode("Wahaor", kg.KindGPE, "a city")
	province := b.AddNode("Wahaor", kg.KindGPE, "a province")
	country := b.AddNode("Fornoinstan", kg.KindGPE, "a country")
	port, lake := b.AddNode("Port", kg.KindGPE, "a port"), b.AddNode("Lake", kg.KindGPE, "a lake")
	b.AddEdgeByName(city, country, "capital of", 1)
	b.AddEdgeByName(province, country, "located in", 1)
	b.AddEdgeByName(port, city, "located in", 1)
	b.AddEdgeByName(lake, province, "located in", 1)
	g = b.Build()
	q, r = embed(t, g, []string{"port", "fornoinstan"}), embed(t, g, []string{"lake", "fornoinstan"})
	if got := crossPaths(g, q, r, "wahaor", "fornoinstan", 2); len(got) != 2 {
		t.Fatalf("want both one-hop paths, got %d", len(got))
	}
	for i := 0; i < 20; i++ {
		got := crossPaths(g, q, r, "wahaor", "fornoinstan", 1)
		if len(got) != 1 || got[0].Hops[0].From != city {
			t.Fatalf("call %d: %v, want the path from node %d", i, got, city)
		}
	}
}

func TestCrossPathsDisjointEmbeddings(t *testing.T) {
	g := figure1Graph()
	q := embed(t, g, []string{"upper dir", "swat valley"})
	r := embed(t, g, []string{"lahore", "pakistan"})
	// Labels that are not in the union at all.
	if got := crossPaths(g, q, r, "atlantis", "lahore", 3); got != nil {
		t.Fatalf("unknown label produced paths: %v", got)
	}
}

func TestCrossPathsSingleNodeSubgraph(t *testing.T) {
	g := figure1Graph()
	// A one-label group embeds as a single root node with no arcs. It is
	// part of the union, but the search is scoped to the embeddings' arcs:
	// with no arc touching Taliban the union is disconnected and no path
	// exists (and the search must not crash on the isolated node).
	q := embed(t, g, []string{"taliban"})
	r := embed(t, g, []string{"kunar", "pakistan"})
	if got := crossPaths(g, q, r, "taliban", "pakistan", 3); got != nil {
		t.Fatalf("disconnected union produced paths: %v", got)
	}
	// Within the connected part, paths still work.
	paths := crossPaths(g, q, r, "kunar", "pakistan", 3)
	if len(paths) == 0 {
		t.Fatal("no path between connected labels")
	}
	rd := paths[0].Render(g)
	if !strings.HasPrefix(rd, "Kunar") || !strings.HasSuffix(rd, "Pakistan") {
		t.Fatalf("path = %s", rd)
	}
}

func TestCrossPathsDirectionRendering(t *testing.T) {
	g := figure1Graph()
	q := embed(t, g, []string{"upper dir", "swat valley", "pakistan", "taliban"})
	r := embed(t, g, []string{"lahore", "peshawar", "pakistan", "taliban"})
	paths := crossPaths(g, q, r, "taliban", "upper dir", 3)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	rd := paths[0].Render(g)
	// taliban -[active in]-> ... <-[located in]- upper dir: both original
	// edge directions must be preserved in the rendering.
	if !strings.Contains(rd, "-[active in]->") {
		t.Fatalf("forward edge direction lost: %s", rd)
	}
	if !strings.Contains(rd, "<-[located in]-") && !strings.Contains(rd, "<-[adjacent to]-") {
		t.Fatalf("reverse edge direction lost: %s", rd)
	}
}

// TestWeightedEdgesGStar exercises non-unit edge weights end to end: the
// root must minimize weighted distances, and a cheaper two-hop path must be
// preferred over an expensive direct edge.
func TestWeightedEdgesGStar(t *testing.T) {
	b := kg.NewBuilder(5)
	a := b.AddNode("A", kg.KindGPE, "")
	c := b.AddNode("B", kg.KindGPE, "")
	hub := b.AddNode("Hub", kg.KindGPE, "")
	via := b.AddNode("Via", kg.KindGPE, "")
	b.AddEdgeByName(a, hub, "heavy", 5)   // direct but expensive
	b.AddEdgeByName(a, via, "light", 1)   // cheap detour
	b.AddEdgeByName(via, hub, "light", 1) // total 2 < 5
	b.AddEdgeByName(c, hub, "light", 1)
	g := b.Build()
	sg := find(t, g, Options{}, "A", "B")
	if sg == nil {
		t.Fatal("no embedding")
	}
	if g.Label(sg.Root) != "Hub" && g.Label(sg.Root) != "Via" {
		t.Fatalf("root = %s", g.Label(sg.Root))
	}
	// The A-side path must go through Via (weight 2), not the heavy edge.
	viaID := g.Lookup("Via")[0]
	if !sg.HasNode(viaID) {
		t.Fatalf("weighted shortest path not taken: nodes %v", sg.Nodes)
	}
	for _, arc := range sg.Arcs {
		if g.RelName(arc.Rel) == "heavy" {
			t.Fatal("expensive direct edge should not be in G*")
		}
	}
	// Depth is a weighted distance.
	if sg.Depth() != 2 {
		t.Fatalf("weighted depth = %v, want 2", sg.Depth())
	}
}
