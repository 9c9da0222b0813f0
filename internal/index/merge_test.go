package index

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"
)

// randDocs generates a deterministic synthetic corpus of term slices.
func randDocs(seed int64, n int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	docs := make([][]string, n)
	for d := range docs {
		terms := make([]string, 3+rng.Intn(20))
		for i := range terms {
			terms[i] = "t" + strconv.Itoa(rng.Intn(40))
		}
		docs[d] = terms
	}
	return docs
}

func buildFrom(docs [][]string) *Index {
	b := NewBuilder()
	for _, d := range docs {
		b.Add(d)
	}
	return b.Build()
}

func serialize(t *testing.T, idx *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMergeIdentityNoDeletes: merging segments without tombstones must be
// an identity transform — the merged index serializes byte-for-byte
// identically to a single index built from the concatenated corpus. This
// is the strongest form of the rank/score-identity claim of DESIGN.md §11:
// identical bytes mean identical docLen/totalLen floats, identical TermIDs
// and identical block layout, so every scorer and traversal behaves the
// same.
func TestMergeIdentityNoDeletes(t *testing.T) {
	for _, splits := range [][]int{{10}, {3, 7}, {1, 1, 1, 1, 1, 5}, {25, 0, 13}} {
		total := 0
		for _, n := range splits {
			total += n
		}
		docs := randDocs(7, total)
		var parts []*Index
		at := 0
		for _, n := range splits {
			parts = append(parts, buildFrom(docs[at:at+n]))
			at += n
		}
		merged, err := MergeSegments(parts, nil)
		if err != nil {
			t.Fatal(err)
		}
		mono := buildFrom(docs)
		if !bytes.Equal(serialize(t, merged), serialize(t, mono)) {
			t.Fatalf("splits %v: merged index differs from monolithic build", splits)
		}
	}
}

// TestMergeDropsTombstoned: with tombstones, the merge must be
// byte-identical to building an index over the surviving documents only —
// DF, document lengths and the average all tighten to the live corpus.
func TestMergeDropsTombstoned(t *testing.T) {
	docs := randDocs(11, 30)
	partA, partB := buildFrom(docs[:14]), buildFrom(docs[14:])
	deadA := NewBitmap(14)
	for _, d := range []int{0, 5, 13} {
		deadA.Set(d)
	}
	// partB has a nil bitmap: no deletes there.
	merged, err := MergeSegments([]*Index{partA, partB}, []*Bitmap{deadA, nil})
	if err != nil {
		t.Fatal(err)
	}
	var live [][]string
	for d, terms := range docs {
		if d < 14 && deadA.Get(d) {
			continue
		}
		live = append(live, terms)
	}
	mono := buildFrom(live)
	if merged.NumDocs() != len(live) {
		t.Fatalf("merged has %d docs, want %d", merged.NumDocs(), len(live))
	}
	if !bytes.Equal(serialize(t, merged), serialize(t, mono)) {
		t.Fatal("merged-with-tombstones differs from a build over live docs")
	}
}

// TestMergeDropsFullyDeadTerm: a term whose every posting is tombstoned
// must vanish from the merged vocabulary instead of surviving as an empty
// list.
func TestMergeDropsFullyDeadTerm(t *testing.T) {
	b := NewBuilder()
	b.Add([]string{"alive", "shared"})
	b.Add([]string{"doomed", "shared"})
	part := b.Build()
	dead := NewBitmap(2)
	dead.Set(1)
	merged, err := MergeSegments([]*Index{part}, []*Bitmap{dead})
	if err != nil {
		t.Fatal(err)
	}
	if merged.DF("doomed") != 0 || len(postings(t, merged, "doomed")) != 0 {
		t.Fatalf("tombstoned-only term survived: df=%d", merged.DF("doomed"))
	}
	if merged.DF("shared") != 1 || merged.DF("alive") != 1 {
		t.Fatalf("live postings wrong: shared=%d alive=%d", merged.DF("shared"), merged.DF("alive"))
	}
	if merged.NumDocs() != 1 {
		t.Fatalf("NumDocs = %d, want 1", merged.NumDocs())
	}
}
