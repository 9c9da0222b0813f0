package search

import (
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
	return selectTop(acc, k), nil
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

// selectTop extracts the k best hits from an accumulator. The heap holds at
// most len(acc) hits, so the capacity is clamped defensively in case an
// oversized (e.g. request-supplied) k reaches this point.
func selectTop(acc map[index.DocID]float64, k int) []Hit {
	h := make(hitHeap, 0, min(k, len(acc)))
	for d, s := range acc {
		pushTop(&h, Hit{d, s}, k)
	}
	return drainHeap(h)
}

// drainHeap pops a hitHeap into descending rank order (score descending,
// ties by ascending DocID). The heap is consumed.
func drainHeap(h hitHeap) []Hit {
	out := make([]Hit, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = h.pop()
	}
	return out
}

// hitHeap is a min-heap by (score, then descending DocID) so the weakest
// hit is on top and ties prefer smaller DocIDs in the final ranking. The
// sift operations are hand-rolled rather than going through container/heap
// because heap.Push(any)/heap.Pop() any box every Hit — on the hot path
// that was two allocations per candidate considered, dwarfing everything
// else once the accumulators were pooled.
type hitHeap []Hit

// less orders the heap: weakest (lowest score, then largest DocID) first.
func (h hitHeap) less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].Doc > h[j].Doc
}

// up restores the heap property after appending at index i.
func (h hitHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// down restores the heap property after replacing the element at index i.
func (h hitHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// pop removes and returns the weakest hit.
func (h *hitHeap) pop() Hit {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	it := old[n]
	*h = old[:n]
	(*h).down(0)
	return it
}

func pushTop(h *hitHeap, hit Hit, k int) {
	if len(*h) < k {
		*h = append(*h, hit)
		h.up(len(*h) - 1)
		return
	}
	worst := (*h)[0]
	if hit.Score > worst.Score || hit.Score == worst.Score && hit.Doc < worst.Doc {
		(*h)[0] = hit
		h.down(0)
	}
}
