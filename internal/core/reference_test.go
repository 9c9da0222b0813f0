package core

import (
	"container/heap"
	"sort"

	"newslink/internal/kg"
)

// This file is the executable specification of the G* search: the original
// map-based implementation, byte for byte modulo renames — per-label
// map[kg.NodeID]float64 distances, map[kg.NodeID]bool settled sets, parent
// arcs recorded relaxation by relaxation, a global reached counter map and
// one container/heap frontier in (distance, label, node) order. The
// node-major search (state.go) must produce embeddings identical to it —
// root, labels, distance vectors, node set, arcs, expansion count and
// serialized bytes — which identity_test.go asserts on synthetic worlds,
// hand-built adversarial graphs and fuzzed ones.

// FindReference computes the same optimal subgraph embedding as Find with
// the reference traversal.
func (s *Searcher) FindReference(labels []string) *Subgraph {
	st := newRefState(s.g, s.opts, labels)
	if st == nil {
		return nil
	}
	st.run()
	return st.best()
}

// refLabelState is the per-label Dijkstra state (the paper's F_i plus the
// distance map and shortest-path DAG parents for reconstruction).
type refLabelState struct {
	dist    map[kg.NodeID]float64
	settled map[kg.NodeID]bool
	parents map[kg.NodeID][]PathArc
}

type refState struct {
	g      *kg.Graph
	opts   Options
	labels []string // deduplicated labels that resolved to >=1 node
	ls     []refLabelState
	h      frontier
	// reached counts how many labels have assigned a finite distance to a
	// node; when it hits len(labels) the node becomes a candidate root.
	reached    map[kg.NodeID]int32
	candidates []kg.NodeID
	candSet    map[kg.NodeID]bool
	minDepth   float64 // min over candidates of depth at insertion (C2)
	minSum     float64 // min over candidates of distance sum (ModelTree)
	expansions int
}

// newRefState initializes Algorithm 1 lines 1-7. It returns nil if no label
// resolves to a node.
func newRefState(g *kg.Graph, opts Options, labels []string) *refState {
	st := &refState{
		g:        g,
		opts:     opts,
		reached:  make(map[kg.NodeID]int32),
		candSet:  make(map[kg.NodeID]bool),
		minDepth: inf,
		minSum:   inf,
	}
	// First pass: register every label that resolves, so the candidate test
	// (reached == len(labels)) sees the final label count.
	seen := make(map[string]bool, len(labels))
	var sourceSets [][]kg.NodeID
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
		st.labels = append(st.labels, key)
		sourceSets = append(sourceSets, sources)
	}
	if len(st.labels) == 0 {
		return nil
	}
	// Second pass: seed the per-label frontiers F_i (Algorithm 1 lines 1-5).
	for li, sources := range sourceSets {
		ls := refLabelState{
			dist:    make(map[kg.NodeID]float64),
			settled: make(map[kg.NodeID]bool),
			parents: make(map[kg.NodeID][]PathArc),
		}
		st.ls = append(st.ls, ls)
		for _, v := range sources {
			if _, ok := ls.dist[v]; ok {
				continue
			}
			ls.dist[v] = 0
			st.noteReached(v)
			heap.Push(&st.h, item{0, int32(li), v})
		}
	}
	return st
}

// noteReached records that one more label reached v and promotes v to a
// candidate root when all labels have (Algorithm 3).
func (st *refState) noteReached(v kg.NodeID) {
	st.reached[v]++
	if int(st.reached[v]) != len(st.labels) || st.candSet[v] {
		return
	}
	st.candSet[v] = true
	st.candidates = append(st.candidates, v)
	depth, sum := 0.0, 0.0
	for i := range st.ls {
		d := st.ls[i].dist[v]
		sum += d
		if d > depth {
			depth = d
		}
	}
	if depth < st.minDepth {
		st.minDepth = depth
	}
	if sum < st.minSum {
		st.minSum = sum
	}
}

// peekValid returns the distance of the next non-stale frontier entry
// (D'_min at Algorithm 1 line 11), discarding stale entries as it goes.
func (st *refState) peekValid() float64 {
	for st.h.Len() > 0 {
		top := st.h[0]
		ls := &st.ls[top.li]
		if ls.settled[top.v] || top.d > ls.dist[top.v] {
			heap.Pop(&st.h)
			continue
		}
		return top.d
	}
	return inf
}

// run is the PathEnumeration / CandidateCollection loop (Algorithm 1 lines
// 8-13, Algorithm 2).
func (st *refState) run() {
	for st.expansions < st.opts.MaxExpansions {
		// Termination test: C1 (a candidate exists) and C2 (the next frontier
		// distance exceeds the collected depth). TreeEmb uses the Steiner
		// lower bound m*D'_min instead.
		next := st.peekValid()
		if next == inf {
			return // graph exhausted
		}
		if len(st.candidates) > 0 && !st.opts.NoEarlyStop {
			if st.opts.Model == ModelTree {
				if st.minSum <= float64(len(st.labels))*next {
					return
				}
			} else if st.minDepth < next {
				return
			}
		}
		// PathEnumeration: pop the globally smallest frontier entry.
		it := heap.Pop(&st.h).(item)
		ls := &st.ls[it.li]
		if ls.settled[it.v] || it.d > ls.dist[it.v] {
			continue // stale
		}
		ls.settled[it.v] = true
		st.expansions++
		for k := range st.g.Degree(it.v) {
			a := st.g.Arc(it.v, k)
			nd := it.d + a.Weight
			if st.opts.MaxDepth > 0 && nd > st.opts.MaxDepth {
				continue
			}
			cur, ok := ls.dist[a.To]
			arc := PathArc{From: it.v, To: a.To, Rel: a.Rel, Reverse: a.Reverse}
			switch {
			case !ok || nd < cur:
				ls.dist[a.To] = nd
				ls.parents[a.To] = append(ls.parents[a.To][:0], arc)
				heap.Push(&st.h, item{nd, it.li, a.To})
				if !ok {
					st.noteReached(a.To)
				}
			case nd == cur:
				// An equal-cost path: preserve it for the "width" of the
				// embedding (Definition 3 keeps all shortest paths).
				ls.parents[a.To] = append(ls.parents[a.To], arc)
			}
		}
	}
}

// best implements compactness sorting (Algorithm 1 line 14) and subgraph
// reconstruction, returning nil when no candidate was collected.
func (st *refState) best() *Subgraph {
	if len(st.candidates) == 0 {
		return nil
	}
	vec := func(v kg.NodeID) []float64 {
		out := make([]float64, len(st.ls))
		for i := range st.ls {
			out[i] = st.ls[i].dist[v]
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(out)))
		return out
	}
	bestV := st.candidates[0]
	bestVec := vec(bestV)
	for _, v := range st.candidates[1:] {
		cand := vec(v)
		var better bool
		switch {
		case st.opts.Model == ModelTree:
			cs, bs := sumVec(cand), sumVec(bestVec)
			better = cs < bs || cs == bs && CompareCompactness(cand, bestVec) < 0 ||
				cs == bs && CompareCompactness(cand, bestVec) == 0 && v < bestV
		case st.opts.DepthOnly:
			// Ablation: plain depth minimization ignores the tie-breaking
			// tail of the compactness order.
			cd, bd := cand[0], bestVec[0]
			better = cd < bd || cd == bd && v < bestV
		default:
			c := CompareCompactness(cand, bestVec)
			better = c < 0 || c == 0 && v < bestV
		}
		if better {
			bestV, bestVec = v, cand
		}
	}
	return st.reconstruct(bestV)
}

// reconstruct builds the subgraph G_r(L) = union over labels of the
// shortest paths from the label's sources to the root (Definition 3 /
// Equation 1). For ModelTree only the first recorded parent is followed,
// yielding a single path per label.
func (st *refState) reconstruct(root kg.NodeID) *Subgraph {
	sg := &Subgraph{
		Root:       root,
		Labels:     append([]string(nil), st.labels...),
		Dists:      make([]float64, len(st.labels)),
		Expansions: st.expansions,
	}
	sg.LabelArcs = make([][]PathArc, len(st.labels))
	nodeSet := map[kg.NodeID]bool{root: true}
	arcSet := map[PathArc]bool{}
	for i := range st.ls {
		ls := &st.ls[i]
		sg.Dists[i] = ls.dist[root]
		// Walk the shortest-path DAG backwards from the root. Arcs are
		// oriented From(parent, closer to the label) -> To(closer to root).
		visited := map[kg.NodeID]bool{root: true}
		labelSeen := map[PathArc]bool{}
		stack := []kg.NodeID{root}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			parents := ls.parents[v]
			if st.opts.Model == ModelTree && len(parents) > 1 {
				parents = parents[:1]
			}
			for _, p := range parents {
				arcSet[p] = true
				if !labelSeen[p] {
					labelSeen[p] = true
					sg.LabelArcs[i] = append(sg.LabelArcs[i], p)
				}
				nodeSet[p.From] = true
				if !visited[p.From] {
					visited[p.From] = true
					stack = append(stack, p.From)
				}
			}
		}
		sortArcs(sg.LabelArcs[i])
	}
	sg.Nodes = make([]kg.NodeID, 0, len(nodeSet))
	for v := range nodeSet {
		sg.Nodes = append(sg.Nodes, v)
	}
	sort.Slice(sg.Nodes, func(i, j int) bool { return sg.Nodes[i] < sg.Nodes[j] })
	sg.Arcs = make([]PathArc, 0, len(arcSet))
	for a := range arcSet {
		sg.Arcs = append(sg.Arcs, a)
	}
	sortArcs(sg.Arcs)
	return sg
}
