package search

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"math/rand"

	"newslink/internal/index"
)

// TestScratchReleaseScrubs: an accumulator that has scored documents must
// come back from the pool with every array entry zero, whatever the next
// request's span is — the invariant the pooled-reuse safety argument
// rests on.
func TestScratchReleaseScrubs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		span := 1 + rng.Intn(5000)
		a := acquireBMAcc(span)
		for i := 0; i < 200; i++ {
			d := index.DocID(rng.Intn(span))
			if !a.isSeen(d) {
				a.admit(d)
			}
			a.add(d, rng.Float64())
		}
		a.sweep(0, 1e9) // drop some viable bits so viable ⊂ seen
		a.release()

		// Drain the pool until we get an accumulator back (the pool may
		// hold several), checking each is fully scrubbed across its whole
		// capacity, not just the last request's span.
		b := acquireBMAcc(cap(a.score))
		for i, s := range b.score {
			if s != 0 {
				t.Fatalf("trial %d: pooled score[%d] = %v, want 0", trial, i, s)
			}
		}
		for w := range b.seen {
			if b.seen[w] != 0 || b.viable[w] != 0 {
				t.Fatalf("trial %d: pooled bitmap word %d dirty: seen=%x viable=%x",
					trial, w, b.seen[w], b.viable[w])
			}
		}
		if b.n != 0 {
			t.Fatalf("trial %d: pooled n = %d, want 0", trial, b.n)
		}
		b.release()
	}
}

// TestPooledReuseIdentityUnderConcurrency mirrors core/identity_test.go for
// the retrieval scratch: many goroutines run the pooled block-max kernel
// (through both entry points) concurrently over shared immutable indexes, recycling accumulators,
// candidate lists and cursors through the pools at high frequency, and every single
// result must stay bitwise identical to the sequential exact reference
// computed up front. Run under -race this doubles as the data-race proof
// for pooled reuse.
func TestPooledReuseIdentityUnderConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	type testCase struct {
		idx  *index.Index
		s    BM25
		q    Query
		k    int
		want []Hit
	}
	cases := make([]testCase, 12)
	for ci := range cases {
		nDocs := 200 + rng.Intn(3000)
		idx := build(kernelDocs(nDocs, rng.Intn(256)))
		s := NewBM25(idx)
		q := Query{}
		for i, nq := 0, 1+rng.Intn(4); i < nq; i++ {
			q[termName(rng.Intn(10))] = 0.5 + rng.Float64()
		}
		k := 1 + rng.Intn(15)
		// The kernel is bitwise identical to the TAAT oracle (same term
		// order, same summation order), so the reference comparison below
		// can demand exact equality, not tolerance.
		cases[ci] = testCase{idx, s, q, k, exactTopK(t, idx, s, q, k)}
	}
	ctx := context.Background()
	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				tc := cases[(g+it)%len(cases)]
				var got []Hit
				var err error
				if it%2 == 0 {
					got, _, err = TopKBlockMaxStats(ctx, tc.idx, tc.s, tc.q, tc.k)
				} else {
					ordered, _ := OrderTerms(tc.idx, tc.s, tc.q)
					got, _, err = TopKBlockMaxOrderedStats(ctx, tc.idx, tc.s, ordered, tc.k)
				}
				if err != nil {
					errs <- err.Error()
					return
				}
				if len(got) != len(tc.want) {
					errs <- "result length drifted under pooled reuse"
					return
				}
				for i := range got {
					if got[i] != tc.want[i] {
						errs <- "result drifted under pooled reuse"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestPooledHeapAndMapReuse: the exact TAAT oracle's pooled map
// accumulator and the kernel's pooled dense accumulator and candidate
// list (the top-k heap before it) are recycled between calls;
// interleaving them must not corrupt results.
func TestPooledHeapAndMapReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 20; trial++ {
		idx := build(kernelDocs(100+rng.Intn(1500), rng.Intn(256)))
		s := NewBM25(idx)
		q := Query{}
		for i, nq := 0, 1+rng.Intn(3); i < nq; i++ {
			q[termName(rng.Intn(5))] = 0.5 + rng.Float64()
		}
		k := 1 + rng.Intn(10)
		want := exactTopK(t, idx, s, q, k)
		for rep := 0; rep < 3; rep++ {
			if got := blockMax(t, idx, s, q, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d rep %d: block-max %v want %v", trial, rep, got, want)
			}
			if got := exactTopK(t, idx, s, q, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d rep %d: TopK drifted on reuse: %v want %v", trial, rep, got, want)
			}
		}
	}
}
