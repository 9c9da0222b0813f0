package core

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"

	"newslink/internal/kg"
)

// This file holds the traversal state of the G* search (Algorithms 1-3).
// It is node-major: every node a query touches owns one dense record, and
// nothing is keyed by label first.
//
//   - idx maps node → slot for the whole graph (8 B per node, per pooled
//     state). An entry is live only if its high half equals the state's
//     epoch, so one epoch bump per query invalidates all of it; nothing is
//     cleared at release time.
//   - A slot's record is dist[slot·m : slot·m+m] (every label's tentative
//     distance, contiguous; +Inf ⇔ undiscovered), ord (the same shape: 0 ⇔
//     unsettled, otherwise the 1-based position in the pop sequence) and a
//     slotRec (node id, reached-label count, reconstruction mark). Slots are
//     handed out in first-touch order, so a pooled state retains memory
//     proportional to its largest query.
//   - The frontier is a monotone bucket queue (a radix heap) keyed on the
//     bit pattern of the non-negative float64 distance: bucket i holds the
//     entries whose key first differs from the last popped key at bit i-1,
//     bucket 0 therefore exactly the entries at the current distance — one
//     level. Levels are drained whole.
//   - No parents are stored. reconstruct derives label li's parents of v as
//     the settled neighbours u with dist(li,u) + w == dist(li,v), which is
//     the set the reference implementation records relaxation by
//     relaxation (reference_test.go); ord recovers which came first.
//
// Results are identical to the reference, which pops one global
// (distance, label, node) order. With strictly positive weights the G*
// stop (C1 and C2) can only fire between levels, so the settled set, the
// distances, the candidate set and the expansion count do not depend on
// the order inside a level — provided no tentative distance is ever
// lowered, because a candidate's depth is taken when its last label
// arrives. That holds on a uniform-weight graph (a node discovered from
// level d always gets d+w), which Searcher establishes once per graph. A
// level is put in (label, node) order when it is opened wherever that
// argument does not apply: non-uniform weights, ModelTree (its sum bound
// can stop inside a level) and a level longer than the remaining
// MaxExpansions budget. DESIGN.md §12 has the full argument.

// slotRec is the per-node part of a touched node's record.
type slotRec struct {
	node  kg.NodeID
	reach int32  // labels that have assigned a finite distance (Algorithm 3)
	mark  uint32 // reconstruct's visit stamp
}

// state is one pooled G* traversal. It is owned by a single Find/FindK
// call at a time and recycled through the Searcher's pool.
type state struct {
	g       *kg.Graph
	opts    Options
	minW    float64 // smallest arc weight of g
	uniform bool    // every arc of g has the same weight

	epoch  uint32
	idx    []uint64 // node → epoch<<32 | slot
	labels []string // deduplicated labels that resolved to >=1 node
	m      int      // len(labels)
	slots  []slotRec
	dist   []float64
	ord    []uint32

	// Bucket queue. buckets[0][pos:] is the undrained part of the level at
	// distance Float64frombits(last); sorted says it is in (label, node)
	// order and must stay so.
	buckets [65][]item
	last    uint64
	pos     int
	sorted  bool

	cands      []uint32 // candidate root slots
	minDepth   float64  // min over candidates of depth at insertion (C2)
	minSum     float64  // min over candidates of distance sum (ModelTree)
	expansions int

	// reconstruction scratch, reused across calls
	stamp   uint32
	stack   []uint32
	nodeBuf []kg.NodeID
	arcBuf  []PathArc
	arcEnd  []int
	vecA    []float64
	vecB    []float64

	// ctx, polled every ctxPollMask+1 expansions when non-nil, lets
	// EmbedGroupsContext cancel a long enumeration cooperatively.
	ctx context.Context
	err error
}

// ctxPollMask throttles context polling in the enumeration loop.
const ctxPollMask = 255

func newState(s *Searcher) *state {
	lo, hi := s.g.WeightRange()
	return &state{g: s.g, opts: s.opts, minW: lo, uniform: lo == hi, idx: make([]uint64, s.g.NumNodes())}
}

// begin readies a (possibly recycled) state for one query: the epoch bump
// orphans every slot, the per-slot arrays are truncated, not cleared.
func (st *state) begin(ctx context.Context) {
	st.epoch++
	if st.epoch == 0 { // wrapped: entries stamped in the previous cycle would read live
		clear(st.idx)
		st.epoch = 1
	}
	st.labels = st.labels[:0]
	st.slots, st.dist, st.ord = st.slots[:0], st.dist[:0], st.ord[:0]
	for i := range st.buckets {
		st.buckets[i] = st.buckets[i][:0]
	}
	st.last, st.pos, st.sorted = 0, 0, false
	st.cands = st.cands[:0]
	st.minDepth, st.minSum = inf, inf
	st.expansions = 0
	st.stamp = 0
	st.ctx = ctx
	st.err = nil
}

// release drops request-scoped references before the state returns to the
// pool.
func (st *state) release() { st.ctx = nil }

// slotOf returns v's slot, if the query has touched v.
func (st *state) slotOf(v kg.NodeID) (uint32, bool) {
	e := st.idx[v]
	return uint32(e), uint32(e>>32) == st.epoch
}

// newSlot gives v, untouched so far, a fresh record.
func (st *state) newSlot(v kg.NodeID) uint32 {
	s := uint32(len(st.slots))
	st.idx[v] = uint64(st.epoch)<<32 | uint64(s)
	st.slots = append(st.slots, slotRec{node: v})
	lo, hi := len(st.dist), len(st.dist)+st.m
	st.dist = slices.Grow(st.dist, st.m)[:hi]
	st.ord = slices.Grow(st.ord, st.m)[:hi]
	for i := lo; i < hi; i++ {
		st.dist[i], st.ord[i] = inf, 0
	}
	return s
}

// hasLabel reports whether the folded key is already registered. Label
// sets are tiny (one news segment's entities), so a linear scan beats a
// map and allocates nothing.
func (st *state) hasLabel(key string) bool {
	for _, l := range st.labels {
		if l == key {
			return true
		}
	}
	return false
}

// init is Algorithm 1 lines 1-7: resolve and deduplicate the labels, then
// seed every label's frontier with its source nodes at distance 0. It
// returns false if no label resolves to a node.
func (st *state) init(labels []string) bool {
	// First pass: register every label that resolves, so the candidate test
	// (reached == len(labels)) sees the final label count.
	for _, l := range labels {
		key := kg.Fold(l)
		if st.hasLabel(key) {
			continue
		}
		if len(st.g.Lookup(key)) == 0 {
			continue
		}
		st.labels = append(st.labels, key)
	}
	st.m = len(st.labels)
	if st.m == 0 {
		return false
	}
	// Second pass: seed the per-label frontiers F_i (Algorithm 1 lines 1-5).
	for li, key := range st.labels {
		for _, v := range st.g.Lookup(key) {
			s, ok := st.slotOf(v)
			if !ok {
				s = st.newSlot(v)
			}
			i := int(s)*st.m + li
			if st.dist[i] != inf {
				continue
			}
			st.dist[i] = 0
			st.noteReached(s)
			st.push(item{0, int32(li), v})
		}
	}
	return true
}

// noteReached records that one more label reached slot s and promotes it to
// a candidate root when all labels have (Algorithm 3).
func (st *state) noteReached(s uint32) {
	r := &st.slots[s]
	r.reach++
	if int(r.reach) != st.m {
		return
	}
	st.cands = append(st.cands, s)
	depth, sum := 0.0, 0.0
	for _, d := range st.dists(s) {
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

// dists returns slot s's per-label distances.
func (st *state) dists(s uint32) []float64 {
	return st.dist[int(s)*st.m:][:st.m]
}

// byLabelNode is the reference frontier's order among entries at one
// distance.
func byLabelNode(a, b item) int {
	if c := cmp.Compare(a.li, b.li); c != 0 {
		return c
	}
	return cmp.Compare(a.v, b.v)
}

// push queues it. Distances never decrease along a traversal, so the key
// is never below last and the bucket index is well defined.
func (st *state) push(it item) {
	b := bits.Len64(math.Float64bits(it.d) ^ st.last)
	if b == 0 && st.sorted {
		// d + w == d in float64: the entry lands in the level being drained
		// and takes its place among the entries still to come, as it would
		// in the reference heap.
		tail := st.buckets[0][st.pos+1:]
		j, _ := slices.BinarySearchFunc(tail, it, byLabelNode)
		st.buckets[0] = slices.Insert(st.buckets[0], st.pos+1+j, it)
		return
	}
	st.buckets[b] = append(st.buckets[b], it)
}

// openLevel makes buckets[0][pos:] the entries at the smallest queued
// distance, in reference order where the order can be observed. It returns
// false when the queue is empty.
func (st *state) openLevel() bool {
	if st.pos == len(st.buckets[0]) {
		st.buckets[0], st.pos = st.buckets[0][:0], 0
		i := 1
		for i < len(st.buckets) && len(st.buckets[i]) == 0 {
			i++
		}
		if i == len(st.buckets) {
			return false
		}
		b := st.buckets[i]
		lo, hi := uint64(math.MaxUint64), uint64(0)
		for _, it := range b {
			k := math.Float64bits(it.d)
			lo, hi = min(lo, k), max(hi, k)
		}
		st.last = lo
		if lo == hi {
			// One distance in the bucket (always, on a unit-weight graph):
			// the bucket is the level.
			st.buckets[0], st.buckets[i] = b, st.buckets[0]
		} else {
			// Every entry moves to a strictly lower bucket.
			st.buckets[i] = b[:0]
			for _, it := range b {
				j := bits.Len64(math.Float64bits(it.d) ^ lo)
				st.buckets[j] = append(st.buckets[j], it)
			}
		}
	}
	level := st.buckets[0][st.pos:]
	st.sorted = !st.uniform || st.opts.Model == ModelTree ||
		len(level) > st.opts.MaxExpansions-st.expansions
	if st.sorted {
		slices.SortFunc(level, byLabelNode)
	}
	return true
}

// run is the PathEnumeration / CandidateCollection loop (Algorithm 1 lines
// 8-13, Algorithm 2), one level of the frontier at a time.
func (st *state) run() {
	m, maxDepth := st.m, st.opts.MaxDepth
	idx, epoch := st.idx, st.epoch
	for st.openLevel() {
		d := math.Float64frombits(st.last) // D'_min at Algorithm 1 line 11
		// At the rim of the MaxDepth ball no arc can pass the depth test, so
		// the level's adjacency lists are not even read.
		rim := maxDepth > 0 && d+st.minW > maxDepth
		for ; st.pos < len(st.buckets[0]); st.pos++ {
			it := st.buckets[0][st.pos]
			li := int(it.li)
			s, _ := st.slotOf(it.v)
			if st.dist[int(s)*m+li] != d {
				continue // stale: a shorter path was found after this entry was queued
			}
			if st.expansions >= st.opts.MaxExpansions {
				return
			}
			if st.ctx != nil && st.expansions&ctxPollMask == 0 {
				if err := st.ctx.Err(); err != nil {
					st.err = err
					return
				}
			}
			// Termination. G* stops under C1 (a candidate exists) and C2 (the
			// next frontier distance exceeds the collected depth). ModelTree
			// stops under the Steiner lower bound: any undiscovered root has
			// every label at distance >= d, hence sum >= m*d — a sound,
			// quality-preserving cut that the as-published bidirectional-
			// expansion baseline LACKS; pass NoEarlyStop to time that original
			// exhaustive behaviour (Figure 7 reproduces the published gap).
			if len(st.cands) > 0 && !st.opts.NoEarlyStop {
				if st.opts.Model == ModelTree {
					if st.minSum <= float64(m)*d {
						return
					}
				} else if st.minDepth < d {
					return
				}
			}
			// PathEnumeration: settle (li, v) and relax its arcs.
			st.expansions++
			st.ord[int(s)*m+li] = uint32(st.expansions)
			if rim {
				continue
			}
			// The graph's own target column; weights are read only where
			// they differ (ws is nil on a uniform-weight graph).
			ws := st.g.Weights(it.v)
			for k, to := range st.g.Targets(it.v) {
				w := st.minW
				if ws != nil {
					w = ws[k]
				}
				nd := d + w
				if maxDepth > 0 && nd > maxDepth {
					continue
				}
				e := idx[to] // slotOf, on locals
				t := uint32(e)
				if uint32(e>>32) != epoch {
					t = st.newSlot(to)
				}
				i := int(t)*m + li
				if cur := st.dist[i]; nd < cur {
					st.dist[i] = nd
					st.push(item{nd, it.li, to})
					if cur == inf {
						st.noteReached(t)
					}
				}
			}
		}
	}
}

// sortDescending orders a compactness vector in place, largest first —
// the allocation-free equivalent of sort.Sort(sort.Reverse(Float64Slice)).
// Vectors are one entity group's label count long, so insertion sort wins.
func sortDescending(v []float64) {
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && v[j] < x {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
}

// fillVec writes slot s's descending-sorted distance vector into out.
func (st *state) fillVec(out []float64, s uint32) {
	copy(out, st.dists(s))
	sortDescending(out)
}

// best implements compactness sorting (Algorithm 1 line 14) and subgraph
// reconstruction, returning nil when no candidate was collected. The two
// comparison vectors live in pooled scratch buffers.
func (st *state) best() *Subgraph {
	if len(st.cands) == 0 {
		return nil
	}
	if cap(st.vecA) < st.m {
		st.vecA = make([]float64, st.m)
		st.vecB = make([]float64, st.m)
	}
	bestVec, cand := st.vecA[:st.m], st.vecB[:st.m]
	bestS := st.cands[0]
	st.fillVec(bestVec, bestS)
	for _, s := range st.cands[1:] {
		st.fillVec(cand, s)
		v, bestV := st.slots[s].node, st.slots[bestS].node
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
			bestS = s
			bestVec, cand = cand, bestVec
		}
	}
	return st.reconstruct(bestS)
}

// reconstruct builds the subgraph G_r(L) = union over labels of the
// shortest paths from the label's sources to the root (Definition 3 /
// Equation 1), walking the shortest-path DAG backwards from the root. Arcs
// are oriented From(parent, closer to the label) -> To(closer to root).
// Only the returned Subgraph allocates; its arc slices share one array.
func (st *state) reconstruct(root uint32) *Subgraph {
	m := st.m
	sg := &Subgraph{
		Root:       st.slots[root].node,
		Labels:     slices.Clone(st.labels),
		Dists:      slices.Clone(st.dists(root)),
		LabelArcs:  make([][]PathArc, m),
		Expansions: st.expansions,
	}
	// A slot's mark is the stamp of the last label walk that visited it:
	// == cur ⇔ visited by this label, > base ⇔ already in nodeBuf.
	base := st.stamp
	st.stamp += uint32(m)
	st.nodeBuf = append(st.nodeBuf[:0], sg.Root)
	st.arcBuf, st.arcEnd = st.arcBuf[:0], st.arcEnd[:0]
	for li := 0; li < m; li++ {
		cur := base + 1 + uint32(li)
		start := len(st.arcBuf)
		st.slots[root].mark = cur
		st.stack = append(st.stack[:0], root)
		for len(st.stack) > 0 {
			s := st.stack[len(st.stack)-1]
			st.stack = st.stack[:len(st.stack)-1]
			n := len(st.arcBuf)
			st.appendParents(li, s)
			for _, p := range st.arcBuf[n:] {
				ps, _ := st.slotOf(p.From)
				r := &st.slots[ps]
				if r.mark == cur {
					continue
				}
				if r.mark <= base {
					st.nodeBuf = append(st.nodeBuf, p.From)
				}
				r.mark = cur
				st.stack = append(st.stack, ps)
			}
		}
		arcs := st.arcBuf[start:]
		sortArcs(arcs)
		st.arcBuf = st.arcBuf[:start+len(slices.Compact(arcs))]
		st.arcEnd = append(st.arcEnd, len(st.arcBuf))
	}
	total := len(st.arcBuf)
	st.arcBuf = append(st.arcBuf, st.arcBuf...)
	union := st.arcBuf[total:]
	sortArcs(union)
	union = slices.Compact(union)
	out := make([]PathArc, total+len(union))
	copy(out, st.arcBuf[:total])
	copy(out[total:], union)
	start := 0
	for li, end := range st.arcEnd {
		if end > start {
			sg.LabelArcs[li] = out[start:end:end]
		}
		start = end
	}
	sg.Arcs = out[total:]
	sg.Nodes = slices.Clone(st.nodeBuf)
	slices.Sort(sg.Nodes)
	return sg
}

// appendParents appends to arcBuf label li's shortest-path parent arcs of
// slot s: one per arc (u, v) whose tail u is settled with dist(u) + w == dist(v).
// These are exactly the arcs a relaxation-time parent list ends up with
// (an arc recorded at a longer distance is dropped when v's distance
// falls, and only expanded nodes relax), found from v's side because every
// edge is stored in both directions with the same weight. ModelTree keeps
// the first arc such a list would hold: the first qualifying arc, in u's
// adjacency order, of the earliest-settled qualifying u.
func (st *state) appendParents(li int, s uint32) {
	m := st.m
	v, dv := st.slots[s].node, st.dist[int(s)*m+li]
	var first, firstOrd uint32 // ModelTree: the earliest-settled parent's slot and ord
	for k := range st.g.Degree(v) {
		a := st.g.Arc(v, k)
		us, ok := st.slotOf(a.To)
		if !ok {
			continue
		}
		i := int(us)*m + li
		if st.ord[i] == 0 || st.dist[i]+a.Weight != dv {
			continue
		}
		if st.opts.Model != ModelTree {
			st.arcBuf = append(st.arcBuf, PathArc{From: a.To, To: v, Rel: a.Rel, Reverse: !a.Reverse})
		} else if firstOrd == 0 || st.ord[i] < firstOrd {
			first, firstOrd = us, st.ord[i]
		}
	}
	if firstOrd != 0 {
		u, du := st.slots[first].node, st.dist[int(first)*m+li]
		for k := range st.g.Degree(u) {
			if a := st.g.Arc(u, k); a.To == v && du+a.Weight == dv {
				st.arcBuf = append(st.arcBuf, PathArc{From: u, To: v, Rel: a.Rel, Reverse: a.Reverse})
				return
			}
		}
	}
}

// sortArcs orders arcs by (From, To, Rel, Reverse) for deterministic
// output.
func sortArcs(arcs []PathArc) {
	slices.SortFunc(arcs, func(a, b PathArc) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		if c := cmp.Compare(a.To, b.To); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Rel, b.Rel); c != 0 {
			return c
		}
		switch {
		case a.Reverse == b.Reverse:
			return 0
		case b.Reverse:
			return -1
		}
		return 1
	})
}
