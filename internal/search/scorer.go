// Package search implements the query-processing half of the NS component
// (Section VI): BM25 scoring over an inverted index, as in the paper's
// Lucene setup, exact and pruned top-k retrieval, and the BOW/BON score
// fusion of Equation 3.
package search

import (
	"math"

	"newslink/internal/index"
)

// BM25 is the probabilistic relevance scorer used by the paper's Lucene
// baseline and by NewsLink's NS component (Robertson & Zaragoza; Lucene
// defaults k1=1.2, b=0.75).
type BM25 struct {
	K1, B  float64
	N      int     // corpus size
	AvgLen float64 // average document length
}

// NodeBM25 returns the node (BON) scorer: b=0 and a small k1. A subgraph
// embedding's size is structural, not verbosity (no length penalty), and
// node frequencies saturate quickly, so BON behaves as an idf-weighted
// node-set match. This keeps Equation 3's text ranking authoritative
// within clusters of same-event stories.
func NodeBM25(n int, avgLen float64) BM25 {
	return BM25{K1: 0.4, B: 0, N: n, AvgLen: avgLen}
}

// NewBM25 returns the text (BOW) scorer — Lucene's default parameters —
// over the given index's own statistics.
func NewBM25(idx index.Source) BM25 {
	return BM25{K1: 1.2, B: 0.75, N: idx.NumDocs(), AvgLen: idx.AvgDocLen()}
}

// idf is Lucene's BM25 idf: ln(1 + (N-df+0.5)/(df+0.5)), always positive.
func (s BM25) idf(df int) float64 {
	return math.Log(1 + (float64(s.N)-float64(df)+0.5)/(float64(df)+0.5))
}

// Weight returns the contribution of one matched term occurrence: tf is
// the term frequency in the document, df the term's document frequency,
// docLen the document length.
func (s BM25) Weight(tf float64, df int, docLen float64) float64 {
	return s.weight(s.idf(df), tf, docLen)
}

// MaxWeight returns an upper bound of Weight over every document of a
// postings list whose largest term frequency is maxTF — what max-score
// pruning bounds a term or a block by. tf*(k1+1)/(tf+k1*(1-b)) is
// increasing in tf and maximal at minimal length norm.
func (s BM25) MaxWeight(maxTF float64, df int) float64 {
	return s.maxWeight(s.idf(df), maxTF)
}

// weight and maxWeight are Weight and MaxWeight with the term's idf
// computed once by the caller: the same operations in the same order, so
// the same bits.
func (s BM25) weight(idf, tf, docLen float64) float64 {
	if tf <= 0 {
		return 0
	}
	norm := s.K1 * (1 - s.B + s.B*docLen/s.AvgLen)
	return idf * tf * (s.K1 + 1) / (tf + norm)
}

func (s BM25) maxWeight(idf, maxTF float64) float64 {
	norm := s.K1 * (1 - s.B) // docLen -> 0 lower-bounds the length norm
	return idf * maxTF * (s.K1 + 1) / (maxTF + norm)
}
