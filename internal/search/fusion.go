package search

import (
	"cmp"
	"slices"

	"newslink/internal/index"
)

// Fuse implements Equation 3 of the paper:
//
//	F(Tq, Tc) = (1-beta) * F_BOW(Tq, Tc) + beta * F_BON(G*q, G*c)
//
// bow and bon are the rankings produced over the text index and the node
// index. Because BM25 scores are unbounded and their ranges differ between
// the two indexes, each ranking is max-normalized before fusion (CombSUM
// with max normalization); with beta=0 or beta=1 Fuse degenerates to the
// single normalized ranking, so the "β=0 reduces to Lucene" property of
// Table VII holds by construction. Both input rankings should be retrieved
// with depth >= k (a fusion candidate pool), each holding a document at
// most once; the fused top k are returned (every fused hit for a negative
// k), ordered by descending score, ties by ascending DocID. A fused
// document's score is its BOW contribution plus its BON contribution, in
// that order.
//
// The top k are selected in place among the joined hits (topHits). Fuse
// allocates the returned slice and nothing else.
func Fuse(bow, bon []Hit, beta float64, k int) []Hit {
	switch {
	case beta <= 0:
		return normalized(bow, k)
	case beta >= 1:
		return normalized(bon, k)
	}
	maxBOW, maxBON := maxScore(bow), maxScore(bon)
	out := make([]Hit, len(bow), len(bow)+len(bon))
	for i, h := range bow {
		out[i] = Hit{Doc: h.Doc, Score: (1 - beta) * scaled(h.Score, maxBOW)}
	}
	// The BOW hits in DocID order are what each BON hit looks its document
	// up in; documents BON alone found go after them.
	slices.SortFunc(out, func(a, b Hit) int { return cmp.Compare(a.Doc, b.Doc) })
	both := out[:len(bow)]
	for _, h := range bon {
		s := beta * scaled(h.Score, maxBON)
		if j, ok := slices.BinarySearchFunc(both, h.Doc, func(a Hit, d index.DocID) int { return cmp.Compare(a.Doc, d) }); ok {
			both[j].Score += s
		} else {
			out = append(out, Hit{Doc: h.Doc, Score: s})
		}
	}
	return topHits(out, k, true)
}

// normalized returns the first k hits of a ranking (all of them for a
// negative k) with their scores divided by the ranking's maximum score,
// mapping them into (0, 1]. An empty or all-zero ranking passes through
// unchanged.
func normalized(hits []Hit, k int) []Hit {
	m := maxScore(hits)
	if m == 0 {
		return clip(hits, k)
	}
	out := make([]Hit, len(clip(hits, k)))
	for i := range out {
		out[i] = Hit{Doc: hits[i].Doc, Score: hits[i].Score / m}
	}
	return out
}

// maxScore is the largest score of a ranking, 0 for an empty one.
func maxScore(hits []Hit) float64 {
	m := 0.0
	for _, h := range hits {
		if h.Score > m {
			m = h.Score
		}
	}
	return m
}

// scaled is a score normalized by its ranking's maximum m (unchanged when
// m is 0: an all-zero ranking stays as it is).
func scaled(score, m float64) float64 {
	if m == 0 {
		return score
	}
	return score / m
}

// RankOrder is the order of every ranking: descending score, ties by
// ascending DocID.
func RankOrder(a, b Hit) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Doc, b.Doc)
}

func clip(hits []Hit, k int) []Hit {
	if k >= 0 && len(hits) > k {
		return hits[:k]
	}
	return hits
}
