package search

import (
	"context"
	"math/rand"
	"testing"

	"newslink/internal/index"
)

// TestBlockMaxPrunesBlocks: the realistic skewed query shape — a rare,
// high-IDF term plus a frequent, low-IDF one — must skip most of the
// frequent term's blocks: after the rare term, the accumulator holds only
// its few documents, and frequent-term blocks containing none of them fall
// below the threshold, leaving a large share of its postings undecoded.
func TestBlockMaxPrunesBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := index.NewBuilder()
	for d := 0; d < 20000; d++ {
		terms := []string{"common"}
		if rng.Intn(400) == 0 {
			terms = append(terms, "rare")
		}
		if rng.Intn(2) == 0 {
			terms = append(terms, "filler")
		}
		add(b, terms)
	}
	idx := b.Build()
	sc := NewBM25(idx)
	q := Query{"rare": 1, "common": 1}
	_, bmStats, err := TopKBlockMaxStats(context.Background(), idx, sc, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if bmStats.BlocksSkipped == 0 {
		t.Fatalf("expected pruned blocks, stats %+v", bmStats)
	}
	if bmStats.BlocksDecoded == 0 || bmStats.Scored == 0 {
		t.Fatalf("expected decoded blocks and scored postings, stats %+v", bmStats)
	}
	bmTouched := bmStats.Scored + bmStats.Skipped
	if bmTouched*2 > bmStats.Postings {
		t.Fatalf("block-max decoded %d of %d postings — expected < half, stats %+v",
			bmTouched, bmStats.Postings, bmStats)
	}
}

func TestBlockMaxEdgeCases(t *testing.T) {
	idx := buildIdx("a b", "b c")
	sc := NewBM25(idx)
	if blockMax(t, idx, sc, NewQuery(nil), 5) != nil {
		t.Fatal("empty query should return nil")
	}
	if blockMax(t, idx, sc, NewQuery([]string{"a"}), 0) != nil {
		t.Fatal("k=0 should return nil")
	}
	if got := blockMax(t, idx, sc, NewQuery([]string{"zzz"}), 5); got != nil {
		t.Fatalf("unknown term hits = %v", got)
	}
	if got := blockMax(t, idx, sc, NewQuery([]string{"a", "zzz"}), 100); len(got) != 1 {
		t.Fatalf("k > matches: %v", got)
	}
}

// TestBlockMaxCancellation: a canceled context aborts the traversal.
func TestBlockMaxCancellation(t *testing.T) {
	idx := build(kernelDocs(5000, 9))
	sc := NewBM25(idx)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := TopKBlockMaxStats(ctx, idx, sc, Query{"t0": 1, "t1": 1}, 10); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestTopKCancellation: the ordered entry point, which shards run, aborts
// with ctx.Err() on an already-cancelled context too.
func TestTopKCancellation(t *testing.T) {
	idx := build(kernelDocs(200, 5))
	scorer := NewBM25(idx)
	ordered, _ := OrderTerms(idx, scorer, Query{"t0": 1, "t1": 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := TopKBlockMaxOrderedStats(ctx, idx, scorer, ordered, 10); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
