package newslink

import (
	"fmt"

	"newslink/internal/core"
	"newslink/internal/index"
	"newslink/internal/kg"
)

// The engine's query-filter plane (DESIGN.md §16). A request's filter
// clauses — temporal range and entity must-match facets — compile into
// one queryFilter, an index.DocFilter the retrieval tier consults through
// the same live-mask seam as tombstones (search.LiveSource via
// index.Masked). Filters mask candidates; they never alter the corpus
// statistics the scorers read, so every block-max bound computed over the
// unfiltered postings stays a valid upper bound and pruning remains exact
// under any filter combination.

// queryFilter is one compiled, request-scoped document filter over a
// segment set's global position space. All fields are immutable after
// newQueryFilter: the request's BOW and BON traversals, which run one
// after the other (Engine.retrieve), read the same one.
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
}

// Keep reports whether the document at global position d survives every
// clause. It runs inside the retrieval hot loops.
func (f *queryFilter) Keep(d index.DocID) bool {
	i := int(d)
	if f.after != 0 && f.times[i] < f.after {
		return false
	}
	if f.before != 0 && f.times[i] > f.before {
		return false
	}
	return f.allow == nil || f.allow.Get(i)
}

// newQueryFilter builds a request's queryFilter over snap, or returns nil
// when the request carries no filter clause (the unfiltered fast path:
// retrieval then runs on the published sources, paying nothing). entities
// holds one node-term set per requested label (entityTerms). The entity
// facet materializes the allowlist bitmap by walking node postings —
// O(total matching postings), paid once per request, never per candidate
// — and a postings read error fails the request rather than yielding an
// allowlist that matches nothing.
func newQueryFilter(snap *segmentSet, after, before int64, entities [][]string) (*queryFilter, error) {
	if after == 0 && before == 0 && len(entities) == 0 {
		return nil, nil
	}
	f := &queryFilter{times: snap.times, after: after, before: before}
	if len(entities) > 0 {
		allow, err := allowBitmap(snap.rawNode, snap.numDocs, entities)
		if err != nil {
			return nil, err
		}
		f.allow = allow
	}
	return f, nil
}

// filteredSources is the set's text and node source with a request's
// filter clauses compiled in: the published sources when there are none.
func (s *segmentSet) filteredSources(after, before int64, entities [][]string) (text, node index.Source, err error) {
	flt, err := newQueryFilter(s, after, before, entities)
	if err != nil {
		return nil, nil, err
	}
	return s.textSource(flt), s.nodeSource(flt), nil
}

// entityTerms resolves entity labels to node-term sets: labels[i] becomes
// the node-index terms of every KG node the folded label maps to. An
// unresolvable label yields an empty set — it can match no document. A
// cluster router's engine ships these sets to its shard workers
// (Traversal.Entities), so every shard filters by one resolution.
func entityTerms(g *kg.Graph, labels []string) [][]string {
	sets := make([][]string, len(labels))
	for i, l := range labels {
		nodes := g.Lookup(kg.Fold(l))
		terms := make([]string, len(nodes))
		for j, n := range nodes {
			terms[j] = core.NodeTerm(n)
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
func allowBitmap(node index.Source, numDocs int, termSets [][]string) (*index.Bitmap, error) {
	var allow *index.Bitmap
	for _, terms := range termSets {
		cur := index.NewBitmap(numDocs)
		for _, t := range terms {
			if err := markPostings(node, t, cur); err != nil {
				return nil, fmt.Errorf("newslink: entity filter: %w", err)
			}
		}
		if allow == nil {
			allow = cur
		} else {
			allow = intersectBitmaps(allow, cur, numDocs)
		}
	}
	return allow, nil
}

// markPostings sets the bit of every document in term's postings list,
// block by block off the cursor (no full-list copy).
func markPostings(node index.Source, term string, bm *index.Bitmap) error {
	c := node.TermCursor(term)
	if c == nil {
		return nil
	}
	defer index.ReleaseCursor(c)
	for c.NextBlock() {
		pl, err := c.Block()
		if err != nil {
			return err
		}
		for _, p := range pl {
			bm.Set(int(p.Doc))
		}
	}
	return nil
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
