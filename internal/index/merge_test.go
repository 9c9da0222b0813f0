package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
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
		add(b, d)
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

// mergeReference is the merge MergeSegments replaced, kept as the
// differential oracle: it collects and sorts the union of the parts'
// vocabularies, materializes each part's list of every term with Postings,
// and renumbers the concatenation through per-part remaps.
func mergeReference(parts []*Index, dead []*Bitmap) (*Index, error) {
	var docLen []float32
	remaps := make([][]int32, len(parts))
	seen := map[string]bool{}
	var terms []string
	for pi, p := range parts {
		r := make([]int32, p.NumDocs())
		for d := range r {
			if dead != nil && dead[pi].Get(d) {
				r[d] = -1
				continue
			}
			r[d] = int32(len(docLen))
			docLen = append(docLen, p.docLen[d])
		}
		remaps[pi] = r
		for _, tl := range p.lists {
			if !seen[tl.term] {
				seen[tl.term] = true
				terms = append(terms, tl.term)
			}
		}
	}
	sort.Strings(terms)
	var lists []termList
	var data []byte
	for _, t := range terms {
		var pl []Posting
		for pi, p := range parts {
			src, err := Postings(p, t)
			if err != nil {
				return nil, err
			}
			for _, e := range src {
				if nd := remaps[pi][e.Doc]; nd >= 0 {
					pl = append(pl, Posting{Doc: DocID(nd), TF: e.TF})
				}
			}
		}
		if len(pl) == 0 {
			continue
		}
		var tl termList
		tl, data = appendBlocks(data, t, pl)
		lists = append(lists, tl)
	}
	return newIndex(docLen, lists, data), nil
}

// randPart builds a part of n documents over a skewed vocabulary, so the
// common terms span several blocks and the rare ones appear in few parts;
// some documents carry a heavy term (multi-byte TF varints).
func randPart(rng *rand.Rand, n int) *Index {
	b := NewBuilder()
	for d := 0; d < n; d++ {
		counts := map[string]float32{}
		for i := 0; i <= rng.Intn(12); i++ {
			counts["t"+strconv.Itoa(rng.Intn(60)*rng.Intn(60)/60)]++
		}
		if rng.Intn(8) == 0 {
			counts["heavy"+strconv.Itoa(rng.Intn(3))] = float32(64 + rng.Intn(1<<16))
		}
		addCounts(b, counts)
	}
	return b.Build()
}

// TestMergeMatchesReference: the one-pass directory merge serializes
// byte-identically to the Postings-based reference over random parts —
// empty ones, heap-resident and mapped ones, with no bitmap, an empty one,
// scattered tombstones or every document dead — and a part whose bytes
// were damaged after the parse fails the merge, naming the first term
// whose blocks no longer decode.
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		parts := make([]*Index, 1+rng.Intn(9))
		dead := make([]*Bitmap, len(parts))
		for pi := range parts {
			n := rng.Intn(300)
			if rng.Intn(6) == 0 {
				n = 0
			}
			parts[pi] = randPart(rng, n)
			switch rng.Intn(4) {
			case 0: // no bitmap
			case 1:
				dead[pi] = NewBitmap(n)
			case 2:
				dead[pi] = NewBitmap(n)
				for d := 0; d < n; d++ {
					if rng.Intn(5) == 0 {
						dead[pi].Set(d)
					}
				}
			case 3:
				dead[pi] = NewBitmap(n)
				for d := 0; d < n; d++ {
					dead[pi].Set(d)
				}
			}
			if rng.Intn(2) == 0 {
				parts[pi], _ = mapIndex(t, parts[pi])
			}
		}
		got, err := MergeSegments(parts, dead)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := mergeReference(parts, dead)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		if !bytes.Equal(serialize(t, got), serialize(t, want)) {
			t.Fatalf("trial %d: merge over %d parts differs from the reference", trial, len(parts))
		}
	}

	held, err := ReadIndex(serialize(t, randPart(rng, 200)))
	if err != nil {
		t.Fatal(err)
	}
	// Zeroed, the term's first block opens with an untagged TF.
	bad := &held.lists[held.NumTerms()/2]
	clear(held.data[bad.offset : bad.offset+int64(bad.blocks[0].end)])
	_, err = MergeSegments([]*Index{randPart(rng, 50), held}, nil)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("term %q", bad.term)) {
		t.Fatalf("merge over a damaged part: %v, want an error naming term %q", err, bad.term)
	}
}
