package search

import (
	"context"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"newslink/internal/index"
)

// sameHits compares rankings exactly — same documents, bitwise-equal
// scores, same order — treating a nil and an empty ranking alike.
func sameHits(a, b []Hit) bool { return slices.Equal(a, b) }

// buildRandIdx builds a deterministic synthetic index for the live-mask
// tests, large enough that block-max pruning actually engages.
func buildRandIdx(seed int64, nDocs int) *index.Index {
	rng := rand.New(rand.NewSource(seed))
	b := index.NewBuilder()
	for d := 0; d < nDocs; d++ {
		terms := make([]string, 5+rng.Intn(30))
		for i := range terms {
			t := rng.Intn(60)
			terms[i] = "t" + strconv.Itoa(t*rng.Intn(60)/60)
		}
		add(b, terms)
	}
	return b.Build()
}

// TestLiveFilteredTraversalsAgree: the kernel and the oracle must return
// the same ranking over a tombstone-filtered source, that ranking must be
// exactly the unfiltered ranking with dead documents removed (Lucene
// semantics: tombstones mask results but keep contributing to DF and
// average length), and a dead document must never surface.
func TestLiveFilteredTraversalsAgree(t *testing.T) {
	const nDocs = 500
	idx := buildRandIdx(3, nDocs)
	rng := rand.New(rand.NewSource(4))
	dead := index.NewBitmap(nDocs)
	for d := 0; d < nDocs; d++ {
		if rng.Intn(4) == 0 {
			dead.Set(d)
		}
	}
	lf := index.Masked(idx, dead, nil)
	scorer := NewBM25(idx) // statistics over the FULL corpus, dead included
	ctx := context.Background()
	for qi := 0; qi < 20; qi++ {
		q := Query{}
		for j := 0; j < 1+rng.Intn(4); j++ {
			q["t"+strconv.Itoa(rng.Intn(60))] = 1
		}
		for _, k := range []int{1, 10, nDocs} {
			want := exactTopK(t, lf, scorer, q, k)
			for _, h := range want {
				if dead.Get(int(h.Doc)) {
					t.Fatalf("q%d k=%d: dead doc %d returned", qi, k, h.Doc)
				}
			}
			// The live ranking is the full ranking minus dead docs: masking
			// changes which documents are admitted, never how one scores.
			full := exactTopK(t, idx, scorer, q, idx.NumDocs())
			var masked []Hit
			for _, h := range full {
				if !dead.Get(int(h.Doc)) {
					masked = append(masked, h)
				}
			}
			if len(masked) > k {
				masked = masked[:k]
			}
			if !sameHits(want, masked) {
				t.Fatalf("q%d k=%d: filtered TopK != full-minus-dead\n%v\nvs\n%v", qi, k, want, masked)
			}
			bm, _, err := TopKBlockMaxStats(ctx, lf, scorer, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !sameHits(bm, want) {
				t.Fatalf("q%d k=%d: block-max disagrees with TAAT on filtered source\n%v\nvs\n%v", qi, k, bm, want)
			}
		}
	}
}

// keepEven is a DocFilter keeping even DocIDs.
type keepEven struct{}

func (keepEven) Keep(d index.DocID) bool { return d%2 == 0 }

// TestLiveFilteredPassThrough: a mask delegates the Source interface
// unchanged — statistics keep counting hidden documents — tombstones and a
// filter on the same source compose to their conjunction, and masking with
// neither returns the source itself.
func TestLiveFilteredPassThrough(t *testing.T) {
	idx := buildRandIdx(5, 50)
	dead := index.NewBitmap(50)
	dead.Set(10)
	lf := index.Masked(idx, dead, nil).(LiveSource)
	if lf.NumDocs() != idx.NumDocs() || lf.AvgDocLen() != idx.AvgDocLen() {
		t.Fatal("mask changed corpus statistics")
	}
	if lf.Live(10) || !lf.Live(11) {
		t.Fatal("Live mask wrong")
	}
	both := index.Masked(idx, dead, keepEven{}).(LiveSource)
	for d := index.DocID(0); d < 50; d++ {
		if want := d != 10 && d%2 == 0; both.Live(d) != want {
			t.Fatalf("tombstones+filter: Live(%d) = %v, want %v", d, both.Live(d), want)
		}
	}
	if onlyFilter := index.Masked(idx, nil, keepEven{}).(LiveSource); !onlyFilter.Live(10) || onlyFilter.Live(11) {
		t.Fatal("filter-only mask wrong")
	}
	if src := index.Masked(idx, nil, nil); src != index.Source(idx) {
		t.Fatal("a nil/nil mask must return the source itself")
	}
	if liveMask(idx) != nil {
		t.Fatal("an unmasked index must expose no live mask")
	}
}
