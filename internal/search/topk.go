package search

import (
	"math/bits"
	"slices"

	"newslink/internal/index"
)

// cancelCheckEvery is how many postings are scanned between cooperative
// ctx.Err() polls; small enough for prompt cancellation, large enough that
// the atomic load in Err is invisible in profiles.
const cancelCheckEvery = 4096

// Hit is one retrieved document with its score.
type Hit struct {
	Doc   index.DocID
	Score float64
}

// Query is a weighted bag of terms. Weights default to the term frequency
// in the query text.
type Query map[string]float64

// NewQuery builds a Query from analyzed terms.
func NewQuery(terms []string) Query {
	q := make(Query, len(terms))
	for _, t := range terms {
		q[t]++
	}
	return q
}

// TopK evaluates the query with exact, exhaustive term-at-a-time
// accumulation and returns the k best documents ordered by descending score
// (ties by ascending DocID). It is the executable specification of the
// block-max kernel: terms are folded in the kernel's canonical order
// (OrderTerms), so both add the same floats in the same order and their
// results compare bitwise, not within a tolerance. A postings read error
// fails the evaluation.
func TopK(idx index.Source, s BM25, q Query, k int) ([]Hit, error) {
	if k <= 0 || len(q) == 0 {
		return nil, nil
	}
	terms, _ := OrderTerms(idx, s, q)
	if len(terms) == 0 {
		return nil, nil
	}
	live := liveMask(idx)
	acc := acquireMapAcc()
	defer releaseMapAcc(acc)
	for _, t := range terms {
		pl, err := index.Postings(idx, t.Term)
		if err != nil {
			return nil, err
		}
		for _, p := range pl {
			if live != nil && !live.Live(p.Doc) {
				continue
			}
			acc[p.Doc] += t.Weight * s.Weight(float64(p.TF), t.DF, idx.DocLen(p.Doc))
		}
	}
	hits := make([]Hit, 0, len(acc))
	for d, s := range acc {
		hits = append(hits, Hit{d, s})
	}
	return topHits(hits, k, true), nil
}

// RetrievalStats reports how one top-k retrieval traversed the index: how
// much of the candidate space the block bounds pruned. The engine attaches
// these to the per-request trace spans (internal/obs) so pruning efficiency
// is visible per query.
type RetrievalStats struct {
	Terms    int // query terms with at least one posting
	Postings int // postings available across those terms
	Scored   int // postings actually scored into an accumulator
	Skipped  int // postings decoded/inspected but skipped by the bound
	// Postings − Scored − Skipped = postings in pruned blocks, never decoded.
	BlocksDecoded int // postings blocks decoded
	BlocksSkipped int // postings blocks pruned without decoding
}

// threshold tracks the k-th best accumulated score (bmAcc.refresh updates
// it once per term).
type threshold struct {
	k int
	v float64
	n int
}

func (t *threshold) init(k int) { t.k = k; t.v = 0; t.n = 0 }
func (t *threshold) min() float64 {
	if t.n < t.k {
		return 0
	}
	return t.v
}

// topHits is the read path's one top-k selection: it reorders hits in
// place so that its first k (all, for a negative k) are the k best by
// RankOrder, the k-th best at k-1, and returns them — in rank order when
// sorted is set; only those k are ever sorted.
func topHits(hits []Hit, k int, sorted bool) []Hit {
	if k < 0 || k > len(hits) {
		k = len(hits)
	}
	selectRank(hits, k, sorted, 2*bits.Len(uint(len(hits))))
	return hits[:k]
}

// selectRank is topHits' quickselect, a partial quicksort when sorted is
// set. Short ranges are insertion-sorted; limit is the partitions left
// before a range whose pivots keep landing near its ends is sorted instead.
func selectRank(hits []Hit, k int, sorted bool, limit int) {
	for k > 0 && len(hits) > insertionMax {
		if limit == 0 {
			slices.SortFunc(hits, RankOrder)
			return
		}
		limit--
		p := partition(hits)
		if p >= k {
			hits = hits[:p]
			continue
		}
		// hits[:p] and the pivot are all among the k best.
		if sorted {
			selectRank(hits[:p], p, true, limit)
		} else if p == k-1 {
			return
		}
		hits, k = hits[p+1:], k-p-1
	}
	if k == 0 {
		return
	}
	for i := 1; i < len(hits); i++ {
		for j := i; j > 0 && before(hits[j], hits[j-1]); j-- {
			hits[j], hits[j-1] = hits[j-1], hits[j]
		}
	}
}

// insertionMax is the range length selectRank insertion-sorts.
const insertionMax = 12

// partition moves a median-of-three pivot to its rank position p in hits
// and returns p: no hit of hits[:p] ranks after it, none of hits[p+1:]
// before it. Scans stop on equal hits, so equal runs split evenly.
func partition(hits []Hit) int {
	n := len(hits)
	a, b, c := 0, n/2, n-1
	if before(hits[b], hits[a]) {
		a, b = b, a
	}
	if before(hits[c], hits[b]) {
		b = c
		if before(hits[b], hits[a]) {
			b = a
		}
	}
	hits[0], hits[b] = hits[b], hits[0]
	pivot := hits[0]
	i, j := 1, n-1
	for {
		for i <= j && before(hits[i], pivot) {
			i++
		}
		for i <= j && before(pivot, hits[j]) {
			j--
		}
		if i >= j {
			break
		}
		hits[i], hits[j] = hits[j], hits[i]
		i++
		j--
	}
	hits[0], hits[j] = hits[j], hits[0]
	return j
}

// before reports whether a ranks ahead of b in RankOrder, inline.
func before(a, b Hit) bool {
	return a.Score > b.Score || a.Score == b.Score && a.Doc < b.Doc
}
