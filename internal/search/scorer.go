// Package search implements the query-processing half of the NS component
// (Section VI): VSM scoring over an inverted index (BM25 as in the paper's
// Lucene setup, plus classic TF-IDF cosine), exact and pruned top-k
// retrieval, and the BOW/BON score fusion of Equation 3.
package search

import (
	"math"

	"newslink/internal/index"
)

// Scorer computes a per-term, per-document partial score. Implementations
// must be pure functions of their arguments so evaluation strategies can
// reorder term processing freely.
type Scorer interface {
	// Weight returns the contribution of one matched term occurrence.
	// tf is the term frequency in the document, df the term's document
	// frequency, docLen the document length.
	Weight(tf float64, df int, docLen float64) float64
	// MaxWeight returns an upper bound of Weight over all documents in the
	// postings list, used by max-score pruning.
	MaxWeight(maxTF float64, df int) float64
}

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

// Weight implements Scorer.
func (s BM25) Weight(tf float64, df int, docLen float64) float64 {
	if tf <= 0 {
		return 0
	}
	norm := s.K1 * (1 - s.B + s.B*docLen/s.AvgLen)
	return s.idf(df) * tf * (s.K1 + 1) / (tf + norm)
}

// MaxWeight implements Scorer: tf*(k1+1)/(tf+k1*(1-b)) is increasing in tf
// and maximal at minimal length norm.
func (s BM25) MaxWeight(maxTF float64, df int) float64 {
	norm := s.K1 * (1 - s.B) // docLen -> 0 lower-bounds the length norm
	return s.idf(df) * maxTF * (s.K1 + 1) / (maxTF + norm)
}

// TFIDF is the classic log-TF/IDF weighting with document-length
// normalization by sqrt(len) (Lucene classic similarity flavour).
type TFIDF struct {
	N int
}

// NewTFIDF returns a TFIDF scorer for the given index.
func NewTFIDF(idx index.Source) TFIDF { return TFIDF{N: idx.NumDocs()} }

func (s TFIDF) idf(df int) float64 {
	if df == 0 {
		return 0
	}
	return 1 + math.Log(float64(s.N)/float64(df))
}

// Weight implements Scorer.
func (s TFIDF) Weight(tf float64, df int, docLen float64) float64 {
	if tf <= 0 || docLen <= 0 {
		return 0
	}
	return (1 + math.Log(tf)) * s.idf(df) / math.Sqrt(docLen)
}

// MaxWeight implements Scorer.
func (s TFIDF) MaxWeight(maxTF float64, df int) float64 {
	return (1 + math.Log(math.Max(maxTF, 1))) * s.idf(df) // docLen>=tf>=1
}
