package search

import (
	"context"
	"sort"

	"newslink/internal/index"
)

// Term ordering and distributed evaluation support.
//
// Every traversal — the block-max kernel and the TAAT oracle — executes
// its terms in one canonical order computed by OrderTerms. A scatter-gather
// router (internal/cluster) reproduces the exact single-process top-k over
// an RPC boundary the same way: per-doc scores are bitwise identical only
// if every shard accumulates terms in the same order with the same global
// BM25 parameters and the same per-term bounds, so the router computes the
// order once — by calling OrderTerms on the merged directory of the target
// corpus, the object a single process calls it on — and ships the ordered
// terms to every shard; shards execute them verbatim via
// TopKBlockMaxOrderedStats without re-deriving local stats.

// OrderedTerm is one query term with its evaluation parameters, in
// canonical execution order (decreasing Bound, ties by Term). In a cluster
// DF and Bound are the global values; a shard uses them verbatim so its
// pruning decisions and per-posting weights match the merged index
// exactly.
type OrderedTerm struct {
	Term   string
	Weight float64
	DF     int
	Bound  float64
}

// OrderTerms is the one term preparation: it reads each query term's
// directory summary on idx — document frequency (tombstoned documents
// included, matching Cursor.Count) and maximum term frequency; nothing is
// decoded — drops terms without postings, and sorts the rest into
// canonical order: bound = weight·MaxWeight(maxTF, df), decreasing, ties
// broken by term. The second result is the total posting count.
func OrderTerms(idx index.Source, s BM25, q Query) ([]OrderedTerm, int) {
	terms := make([]OrderedTerm, 0, len(q))
	total := 0
	for term, qw := range q {
		c := idx.TermCursor(term)
		if c == nil {
			continue
		}
		df, maxTF := c.Count(), float64(c.MaxTF())
		index.ReleaseCursor(c)
		if df == 0 {
			continue
		}
		total += df
		terms = append(terms, OrderedTerm{term, qw, df, qw * s.MaxWeight(maxTF, df)})
	}
	if len(terms) == 0 {
		return nil, 0
	}
	sort.Slice(terms, func(i, j int) bool {
		if terms[i].Bound != terms[j].Bound {
			return terms[i].Bound > terms[j].Bound
		}
		return terms[i].Term < terms[j].Term
	})
	return terms, total
}

// TopKBlockMaxOrderedStats evaluates pre-ordered terms with block-max
// pruning, preserving the given order instead of re-deriving it from
// local cursors. The scorer must carry the global collection parameters
// (see BM25's exported fields).
func TopKBlockMaxOrderedStats(ctx context.Context, idx index.Source, s BM25, ordered []OrderedTerm, k int) ([]Hit, RetrievalStats, error) {
	if k <= 0 || len(ordered) == 0 {
		return nil, RetrievalStats{}, ctx.Err()
	}
	return blockMaxAccumulate(ctx, idx, s, ordered, k)
}

// MergeTopK merges ranked hit lists — each in rank order, as every top-k
// retrieval returns it: descending score, ties by ascending Doc — into a
// global top k in that same order, so merging shard-local winners equals
// selecting over the union. It walks the lists' heads and allocates only
// the returned slice.
func MergeTopK(k int, lists ...[]Hit) []Hit {
	if k <= 0 {
		return nil
	}
	total := 0
	for _, hits := range lists {
		total += len(hits)
	}
	var heads [16]int // next unmerged hit of each list
	next := heads[:0]
	if len(lists) > len(heads) {
		next = make([]int, len(lists))
	}
	next = next[:len(lists)]
	out := make([]Hit, 0, min(k, total))
	for len(out) < cap(out) {
		best := -1
		for i, hits := range lists {
			if next[i] < len(hits) && (best < 0 || RankOrder(hits[next[i]], lists[best][next[best]]) < 0) {
				best = i
			}
		}
		out = append(out, lists[best][next[best]])
		next[best]++
	}
	return out
}
