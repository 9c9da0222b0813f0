package search

import (
	"context"
	"sort"

	"newslink/internal/index"
)

// Term ordering and distributed evaluation support.
//
// Every traversal — the block-max kernel and the TAAT oracle — executes
// its terms in one canonical order computed by orderTerms. A scatter-gather
// router (internal/cluster) reproduces the exact single-process top-k over
// an RPC boundary the same way: per-doc scores are bitwise identical only
// if every shard accumulates terms in the same order with the same global
// BM25 parameters and the same per-term bounds, so the router computes the
// order once — from globally aggregated TermSummary stats — and ships the
// ordered terms to every shard; shards execute them verbatim via
// TopKBlockMaxOrderedStats without re-deriving local stats.

// TermSummary is the directory-level summary of one term on one index
// source: document frequency (tombstoned documents included, matching
// Cursor.Count) and the maximum term frequency across its postings. A
// router sums DF and maxes MaxTF across shards to recover the exact
// global values a single process would read off the merged index.
type TermSummary struct {
	DF    int     `json:"df"`
	MaxTF float64 `json:"max_tf"`
}

// termSummary reads one term's cursor summary, decoding nothing; ok is
// false when the term has no postings.
func termSummary(idx index.Source, term string) (TermSummary, bool) {
	c := idx.TermCursor(term)
	if c == nil {
		return TermSummary{}, false
	}
	ts := TermSummary{DF: c.Count(), MaxTF: float64(c.MaxTF())}
	index.ReleaseCursor(c)
	return ts, ts.DF > 0
}

// TermSummaries reads cursor summaries for the given terms. Terms absent
// from the index are omitted; nothing is decoded.
func TermSummaries(idx index.Source, terms []string) map[string]TermSummary {
	out := make(map[string]TermSummary, len(terms))
	for _, term := range terms {
		if ts, ok := termSummary(idx, term); ok {
			out[term] = ts
		}
	}
	return out
}

// OrderedTerm is one query term with its evaluation parameters, in
// canonical execution order (decreasing Bound, ties by Term). In a cluster
// DF and Bound are the global values; a shard uses them verbatim so its
// pruning decisions and per-posting weights match the merged index
// exactly.
type OrderedTerm struct {
	Term   string  `json:"term"`
	Weight float64 `json:"weight"`
	DF     int     `json:"df"`
	Bound  float64 `json:"bound"`
}

// OrderTerms computes the canonical execution order from (global) term
// stats: bound = weight·MaxWeight(maxTF, df), sorted by decreasing bound
// with ties broken by term — exactly the order a single process derives
// over the merged index. Terms missing from stats are dropped (no postings
// anywhere). The second result is the total posting count.
func OrderTerms(s Scorer, q Query, stats map[string]TermSummary) ([]OrderedTerm, int) {
	return orderTerms(s, q, func(term string) (TermSummary, bool) {
		ts, ok := stats[term]
		return ts, ok
	})
}

// orderIndexTerms is OrderTerms over idx's own cursor summaries.
func orderIndexTerms(idx index.Source, s Scorer, q Query) ([]OrderedTerm, int) {
	return orderTerms(s, q, func(term string) (TermSummary, bool) {
		return termSummary(idx, term)
	})
}

// orderTerms is the one term preparation: it drops terms without postings
// and sorts the rest into canonical order.
func orderTerms(s Scorer, q Query, summary func(term string) (TermSummary, bool)) ([]OrderedTerm, int) {
	terms := make([]OrderedTerm, 0, len(q))
	total := 0
	for term, qw := range q {
		ts, ok := summary(term)
		if !ok || ts.DF == 0 {
			continue
		}
		total += ts.DF
		terms = append(terms, OrderedTerm{term, qw, ts.DF, qw * s.MaxWeight(ts.MaxTF, ts.DF)})
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
func TopKBlockMaxOrderedStats(ctx context.Context, idx index.Source, s Scorer, ordered []OrderedTerm, k int) ([]Hit, RetrievalStats, error) {
	if k <= 0 || len(ordered) == 0 {
		return nil, RetrievalStats{}, ctx.Err()
	}
	return blockMaxAccumulate(ctx, idx, s, ordered, k)
}

// MergeTopK merges pre-ranked hit lists into a global top k with the same
// comparator the per-shard selection used (score descending, ties by
// ascending Doc), so merging shard-local winners equals selecting over
// the union. Lists need not be sorted.
func MergeTopK(k int, lists ...[]Hit) []Hit {
	if k <= 0 {
		return nil
	}
	total := 0
	for _, hits := range lists {
		total += len(hits)
	}
	h := make(hitHeap, 0, min(k, total))
	for _, hits := range lists {
		for _, hit := range hits {
			pushTop(&h, hit, k)
		}
	}
	return drainHeap(h)
}
