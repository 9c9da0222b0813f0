package newslink

import (
	"newslink/internal/index"
	"newslink/internal/kg"
)

// The engine's query-filter plane (DESIGN.md §16). A request's filter
// clauses — temporal range, entity must-match facets, and Related's
// self-exclusion — compile into one queryFilter, an index.DocFilter the
// retrieval tier consults through the same live-mask seam as tombstones
// (search.LiveSource via index.Filtered). Filters mask candidates; they
// never alter the corpus statistics the scorers read, so every block-max
// bound computed over the unfiltered postings stays a valid upper bound
// and pruning remains exact under any filter combination.

// queryFilter is one compiled, request-scoped document filter over a
// segment set's global position space. All fields are immutable after
// compileFilter, so the concurrent BOW and BON traversals share it
// lock-free.
type queryFilter struct {
	// times is the set's concatenated time column; consulted only when a
	// temporal bound is set.
	times []int64
	// after/before are the inclusive Document.Time bounds; 0 = unbounded.
	after, before int64
	// allow, when non-nil, is the entity-facet allowlist: the conjunction
	// over requested labels of the union of node-postings per label. A
	// document must be set here to survive.
	allow *index.Bitmap
	// exclude is one global position to drop (Related's own document), or
	// -1 for none.
	exclude int
}

// Keep reports whether the document at global position d survives every
// clause. It runs inside the retrieval hot loops.
func (f *queryFilter) Keep(d index.DocID) bool {
	i := int(d)
	if i == f.exclude {
		return false
	}
	if f.after != 0 && f.times[i] < f.after {
		return false
	}
	if f.before != 0 && f.times[i] > f.before {
		return false
	}
	return f.allow == nil || f.allow.Get(i)
}

// compileFilter builds the request's queryFilter over snap, or returns nil
// when the request carries no filter clause (the unfiltered fast path:
// retrieval then runs on the raw sources, paying nothing). exclude is a
// global position to hide, or -1. The entity facet resolves each label
// against the graph and materializes the allowlist bitmap by walking node
// postings — O(total matching postings), paid once per request, never per
// candidate.
func (e *Engine) compileFilter(g *kg.Graph, snap *segmentSet, after, before int64, entities []string, exclude int) *queryFilter {
	if after == 0 && before == 0 && len(entities) == 0 && exclude < 0 {
		return nil
	}
	f := &queryFilter{times: snap.times, after: after, before: before, exclude: exclude}
	if len(entities) > 0 {
		f.allow = allowBitmap(snap.node, snap.numDocs, entityTerms(g, entities))
	}
	return f
}

// entityTerms resolves entity labels to node-term sets: labels[i] becomes
// the node-index terms of every KG node the folded label maps to. An
// unresolvable label yields an empty set — it can match no document. The
// cluster router ships these sets to workers (EntityTerms), so both tiers
// share one resolution.
func entityTerms(g *kg.Graph, labels []string) [][]string {
	sets := make([][]string, len(labels))
	for i, l := range labels {
		nodes := g.Lookup(kg.Fold(l))
		terms := make([]string, len(nodes))
		for j, n := range nodes {
			terms[j] = nodeTerm(n)
		}
		sets[i] = terms
	}
	return sets
}

// allowBitmap materializes the entity-facet allowlist over a node index:
// within one term set (one label) documents union — any of the label's
// nodes in the embedding matches — and across sets they intersect (every
// label must match). Postings include tombstoned documents; liveness is a
// separate clause of the composed mask, so including them here is
// harmless. An empty set intersects everything away, so the bitmap (and
// therefore the filter) matches nothing — the right answer for a label
// the graph cannot resolve.
func allowBitmap(node index.Source, numDocs int, termSets [][]string) *index.Bitmap {
	var allow *index.Bitmap
	for _, terms := range termSets {
		cur := index.NewBitmap(numDocs)
		for _, t := range terms {
			for _, p := range node.Postings(t) {
				cur.Set(int(p.Doc))
			}
		}
		if allow == nil {
			allow = cur
		} else {
			allow = intersectBitmaps(allow, cur, numDocs)
		}
	}
	return allow
}

// intersectBitmaps returns a ∧ b as a fresh bitmap of numDocs bits.
func intersectBitmaps(a, b *index.Bitmap, numDocs int) *index.Bitmap {
	out := index.NewBitmap(numDocs)
	a.ForEach(func(i int) {
		if b.Get(i) {
			out.Set(i)
		}
	})
	return out
}
