package search

import (
	"context"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"newslink/internal/index"
	"newslink/internal/mmap"
)

// randomCorpus builds an index large enough that frequent terms span many
// postings blocks, with some terms repeated so term frequencies vary.
func randomCorpus(rng *rand.Rand, nDocs int, vocab []string) *index.Index {
	b := index.NewBuilder()
	for d := 0; d < nDocs; d++ {
		n := 1 + rng.Intn(8)
		var terms []string
		for i := 0; i < n; i++ {
			t := vocab[rng.Intn(len(vocab))]
			terms = append(terms, t)
			if rng.Intn(4) == 0 {
				for range rng.Intn(3) {
					terms = append(terms, t)
				}
			}
		}
		add(b, terms)
	}
	return b.Build()
}

// TestBlockMaxAgreesWithExact: the block-pruned evaluation must return
// exactly the same ranking and scores as exhaustive accumulation, on random
// corpora sized to span many blocks. Both sum in the same term order over
// the same documents, so equality is bitwise.
func TestBlockMaxAgreesWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	ctx := context.Background()
	for trial := 0; trial < 25; trial++ {
		nDocs := 50 + rng.Intn(2000)
		idx := randomCorpus(rng, nDocs, vocab)
		s := NewBM25(idx)
		nq := 1 + rng.Intn(4)
		q := Query{}
		for i := 0; i < nq; i++ {
			q[vocab[rng.Intn(len(vocab))]] = 0.5 + rng.Float64()
		}
		k := 1 + rng.Intn(12)
		exact := exactTopK(t, idx, s, q, k)
		blockmax, bmStats, err := TopKBlockMaxStats(ctx, idx, s, q, k)
		if err != nil {
			t.Fatalf("trial %d: block-max error: %v", trial, err)
		}
		if !reflect.DeepEqual(blockmax, exact) {
			t.Fatalf("trial %d: exact %v blockmax %v (query %v k=%d)", trial, exact, blockmax, q, k)
		}
		if bmStats.Scored+bmStats.Skipped > bmStats.Postings {
			t.Fatalf("trial %d: scored %d + skipped %d > postings %d",
				trial, bmStats.Scored, bmStats.Skipped, bmStats.Postings)
		}
	}
}

// TestBlockMaxAgreesOnDisk runs the same equivalence through an index
// parsed from a read-only mapping of its file, as a snapshot load does.
func TestBlockMaxAgreesOnDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	vocab := []string{"a", "b", "c", "d", "e"}
	idx := randomCorpus(rng, 3000, vocab)
	path := t.TempDir() + "/idx.bin"
	if err := writeIndexFile(idx, path); err != nil {
		t.Fatal(err)
	}
	data, err := mmap.Map(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mmap.Unmap(data)
	d, err := index.ReadIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		q := Query{}
		for i := 0; i <= rng.Intn(3); i++ {
			q[vocab[rng.Intn(len(vocab))]] = 1
		}
		k := 1 + rng.Intn(10)
		exact := exactTopK(t, idx, NewBM25(idx), q, k)
		if got := blockMax(t, d, NewBM25(d), q, k); !reflect.DeepEqual(got, exact) {
			t.Fatalf("trial %d: exact %v blockmax %v", trial, exact, got)
		}
	}
}

// writeIndexFile serializes idx to path.
func writeIndexFile(idx *index.Index, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := idx.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

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
	rng := rand.New(rand.NewSource(9))
	idx := randomCorpus(rng, 5000, []string{"x", "y"})
	sc := NewBM25(idx)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := TopKBlockMaxStats(ctx, idx, sc, Query{"x": 1, "y": 1}, 10); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
