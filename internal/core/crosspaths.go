package core

import (
	"context"
	"sort"

	"newslink/internal/kg"
)

// CrossPathsContext finds relationship paths linking an entity of one
// document to an entity of another through the overlap of their subgraph
// embeddings — the inter-document evidence of Table II ("Upper Dir ->
// Khyber <- Lahore"). The search runs a BFS over the union of both
// embeddings' arcs (treated bidirected, as the underlying KG is), from the
// nodes labeled la to the nodes labeled lb, and enumerates up to limit
// shortest paths. It polls ctx once per frontier level (embedding arc sets
// are small, so levels are the natural granularity), and a done context
// aborts with ctx.Err().
func CrossPathsContext(ctx context.Context, g *kg.Graph, a, b *DocEmbedding, la, lb string, limit int) ([]RelPath, error) {
	if a == nil || b == nil || limit <= 0 {
		return nil, ctx.Err()
	}
	type half struct {
		to      kg.NodeID
		rel     kg.RelID
		forward bool // original KG edge points from -> to for this traversal
	}
	adj := make(map[kg.NodeID][]half)
	addArc := func(p PathArc) {
		// The arc's original KG direction: From->To unless Reverse.
		adj[p.From] = append(adj[p.From], half{p.To, p.Rel, !p.Reverse})
		adj[p.To] = append(adj[p.To], half{p.From, p.Rel, p.Reverse})
	}
	seen := map[PathArc]bool{}
	for _, emb := range []*DocEmbedding{a, b} {
		for _, sg := range emb.Subgraphs {
			for _, arc := range sg.Arcs {
				if !seen[arc] {
					seen[arc] = true
					addArc(arc)
				}
			}
		}
	}
	keyA, keyB := kg.Fold(la), kg.Fold(lb)
	var sources, targets []kg.NodeID
	for n := range adj {
		switch kg.Fold(g.Label(n)) {
		case keyA:
			sources = append(sources, n)
		case keyB:
			targets = append(targets, n)
		}
	}
	// Include isolated single-node subgraphs (roots with no arcs).
	for _, emb := range []*DocEmbedding{a, b} {
		for _, sg := range emb.Subgraphs {
			if len(sg.Arcs) == 0 && len(sg.Nodes) == 1 {
				n := sg.Nodes[0]
				switch kg.Fold(g.Label(n)) {
				case keyA:
					sources = append(sources, n)
				case keyB:
					targets = append(targets, n)
				}
			}
		}
	}
	sources, targets = dedupeIDs(sources), dedupeIDs(targets)
	// sources follow adj's map order; sorted, they fix the BFS frontier,
	// each node's parent list and so which limit paths survive.
	sortNodeIDs(sources)
	if len(sources) == 0 || len(targets) == 0 {
		return nil, ctx.Err()
	}
	targetSet := make(map[kg.NodeID]bool, len(targets))
	for _, t := range targets {
		targetSet[t] = true
	}
	// BFS building a shortest-path parent DAG.
	depth := map[kg.NodeID]int{}
	parents := map[kg.NodeID][]Hop{} // hop.From = predecessor, hop.To = node
	var frontier []kg.NodeID
	for _, s := range sources {
		depth[s] = 0
		frontier = append(frontier, s)
	}
	bestTarget := -1
	for d := 0; len(frontier) > 0; d++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if bestTarget >= 0 && d >= bestTarget {
			break
		}
		var next []kg.NodeID
		for _, v := range frontier {
			if targetSet[v] && bestTarget < 0 {
				bestTarget = depth[v]
			}
			for _, h := range adj[v] {
				nd, ok := depth[h.to]
				if !ok {
					depth[h.to] = d + 1
					parents[h.to] = []Hop{{From: v, To: h.to, Rel: h.rel, Forward: h.forward}}
					next = append(next, h.to)
				} else if nd == d+1 {
					parents[h.to] = append(parents[h.to], Hop{From: v, To: h.to, Rel: h.rel, Forward: h.forward})
				}
			}
		}
		frontier = next
	}
	if bestTarget < 0 {
		return nil, nil
	}
	// Enumerate paths backwards from the nearest targets.
	srcSet := map[kg.NodeID]bool{}
	for _, s := range sources {
		srcSet[s] = true
	}
	var out []RelPath
	var walk func(v kg.NodeID, suffix []Hop)
	walk = func(v kg.NodeID, suffix []Hop) {
		if len(out) >= limit {
			return
		}
		if srcSet[v] {
			hops := make([]Hop, len(suffix))
			for i, h := range suffix {
				hops[len(suffix)-1-i] = h
			}
			// reverse copies suffix back-to-front: suffix was built from the
			// target inward, hops run source -> target.
			out = append(out, RelPath{A: keyA, B: keyB, Hops: hops})
			return
		}
		for _, h := range parents[v] {
			walk(h.From, append(suffix, h))
		}
	}
	sortNodeIDs(targets)
	for _, t := range targets {
		if depth[t] == bestTarget {
			walk(t, nil)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return len(out[i].Hops) < len(out[j].Hops) })
	return out, ctx.Err()
}

func dedupeIDs(ids []kg.NodeID) []kg.NodeID {
	seen := map[kg.NodeID]bool{}
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
