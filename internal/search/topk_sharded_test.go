package search

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"newslink/internal/index"
)

// randomDocs draws a deterministic synthetic corpus: docs draw a
// zipf-flavoured number of terms from a bounded vocabulary so postings
// lists have realistic skew (a few huge, many tiny).
func randomDocs(nDocs, vocab int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	docs := make([][]string, nDocs)
	for d := range docs {
		n := 5 + rng.Intn(60)
		terms := make([]string, n)
		for i := range terms {
			// Square the draw to skew toward low term ids (frequent terms).
			t := rng.Intn(vocab)
			t = t * rng.Intn(vocab) / vocab
			terms[i] = fmt.Sprintf("t%d", t)
		}
		docs[d] = terms
	}
	return docs
}

func buildDocs(docs [][]string) *index.Index {
	b := index.NewBuilder()
	for _, terms := range docs {
		add(b, terms)
	}
	return b.Build()
}

func randomQuery(rng *rand.Rand, vocab, nTerms int) Query {
	q := make(Query, nTerms)
	for i := 0; i < nTerms; i++ {
		q[fmt.Sprintf("t%d", rng.Intn(vocab))] = 1 + float64(rng.Intn(3))
	}
	return q
}

// splitCorpus is the in-package form of the cluster's partitioning: the
// same documents cut into separate sources, each with local DocIDs.
type splitCorpus struct {
	parts []*index.Index
	bases []index.DocID
}

func splitDocs(docs [][]string, shards int) splitCorpus {
	sc := splitCorpus{make([]*index.Index, shards), make([]index.DocID, shards)}
	for w := range sc.parts {
		lo, hi := w*len(docs)/shards, (w+1)*len(docs)/shards
		sc.parts[w], sc.bases[w] = buildDocs(docs[lo:hi]), index.DocID(lo)
	}
	return sc
}

// topK is the cluster's scatter-gather: the term order comes from the
// merged directory of the sources (what the router holds), every source
// runs the ordered kernel under the global scorer, and the rebased
// shard-local winners are merged.
func (sc splitCorpus) topK(t *testing.T, global BM25, q Query, k int) []Hit {
	t.Helper()
	parts := make([]index.Source, len(sc.parts))
	for w, part := range sc.parts {
		parts[w] = part
	}
	ordered, _ := OrderTerms(index.NewMulti(parts...), global, q)
	lists := make([][]Hit, len(sc.parts))
	for w, part := range sc.parts {
		hits, _, err := TopKBlockMaxOrderedStats(context.Background(), part, global, ordered, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			hits[i].Doc += sc.bases[w]
		}
		lists[w] = hits
	}
	return MergeTopK(k, lists...)
}

// TestShardedTopKMatchesSequential: the identity the cluster relies on —
// one index and the same documents split across any number of sources,
// evaluated with global statistics, rank identically: same documents, same
// scores (bit for bit), same tie-breaking.
func TestShardedTopKMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		nDocs, vocab int
	}{
		{37, 40},
		{500, 120},
		{3000, 400},
	} {
		docs := randomDocs(tc.nDocs, tc.vocab, int64(tc.nDocs))
		idx := buildDocs(docs)
		scorer := NewBM25(idx)
		for _, shards := range []int{1, 2, 3, 4, 7, 16} {
			split := splitDocs(docs, shards)
			rng := rand.New(rand.NewSource(7))
			for qi := 0; qi < 8; qi++ {
				q := randomQuery(rng, tc.vocab, 2+qi%7)
				for _, k := range []int{1, 5, 20, 100} {
					want := blockMax(t, idx, scorer, q, k)
					if got := split.topK(t, scorer, q, k); !sameHits(got, want) {
						t.Fatalf("docs=%d q=%d k=%d shards=%d:\nsplit %v\nwhole %v",
							tc.nDocs, qi, k, shards, got, want)
					}
				}
			}
		}
	}
}

// TestShardedTopKAgainstExactTopK cross-checks the split evaluation against
// the exhaustive accumulator, which uses no pruning at all, retrieving
// everything: the same floats are added in the same order, so every score
// matches exactly.
func TestShardedTopKAgainstExactTopK(t *testing.T) {
	docs := randomDocs(800, 150, 3)
	idx := buildDocs(docs)
	scorer := NewBM25(idx)
	rng := rand.New(rand.NewSource(11))
	split := splitDocs(docs, 4)
	for qi := 0; qi < 6; qi++ {
		q := randomQuery(rng, 150, 3+qi)
		want := exactTopK(t, idx, scorer, q, idx.NumDocs())
		got := split.topK(t, scorer, q, idx.NumDocs())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("q=%d:\nsplit %v\nexact %v", qi, got, want)
		}
	}
}

// TestTopKCancellation: both kernel entry points abort with ctx.Err() on an
// already-cancelled context.
func TestTopKCancellation(t *testing.T) {
	idx := buildDocs(randomDocs(200, 60, 5))
	scorer := NewBM25(idx)
	q := Query{"t1": 1, "t2": 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := TopKBlockMaxStats(ctx, idx, scorer, q, 10); err != context.Canceled {
		t.Fatalf("local order: err = %v", err)
	}
	ordered, _ := OrderTerms(idx, scorer, q)
	if _, _, err := TopKBlockMaxOrderedStats(ctx, idx, scorer, ordered, 10); err != context.Canceled {
		t.Fatalf("given order: err = %v", err)
	}
}
