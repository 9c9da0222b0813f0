package index

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

// add indexes a document from an unsorted term list through Add, which
// takes its terms sorted: the one way these tests feed a Builder.
func add(b *Builder, terms []string) DocID {
	sorted := append([]string(nil), terms...)
	sort.Strings(sorted)
	return b.Add(sorted)
}

// addCounts is the map-count reference for Add: it posts every term with
// its count, folding the counts into the length in sorted term order.
func addCounts(b *Builder, counts map[string]float32) DocID {
	keys := make([]string, 0, len(counts))
	for t := range counts {
		keys = append(keys, t)
	}
	sort.Strings(keys)
	doc := b.Add(nil) // an empty document, filled in below
	var total float32
	for _, t := range keys {
		id, ok := b.terms[t]
		if !ok {
			id = TermID(len(b.postings))
			b.terms[t] = id
			b.postings = append(b.postings, nil)
		}
		b.postings[id] = append(b.postings[id], Posting{Doc: doc, TF: counts[t]})
		total += counts[t]
	}
	b.docLen[doc] = total
	return doc
}

func buildSmall() *Index {
	b := NewBuilder()
	docs := []string{
		"taliban attack lahore bomb",
		"taliban pakistan swat valley",
		"election clinton trump debate",
		"lahore lahore lahore cricket",
	}
	for _, d := range docs {
		add(b, strings.Fields(d))
	}
	return b.Build()
}

func serialize(t testing.TB, idx *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postings materializes a term's full list through the one decoder.
func postings(t testing.TB, src Source, term string) []Posting {
	t.Helper()
	pl, err := Postings(src, term)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestIndexBasics(t *testing.T) {
	idx := buildSmall()
	if idx.NumDocs() != 4 {
		t.Fatalf("NumDocs = %d", idx.NumDocs())
	}
	if idx.DF("taliban") != 2 {
		t.Fatalf("DF(taliban) = %d, want 2", idx.DF("taliban"))
	}
	if idx.DF("nope") != 0 {
		t.Fatalf("DF(nope) = %d", idx.DF("nope"))
	}
	pl := postings(t, idx, "lahore")
	if len(pl) != 2 {
		t.Fatalf("postings(lahore) = %v", pl)
	}
	if pl[0].Doc != 0 || pl[0].TF != 1 || pl[1].Doc != 3 || pl[1].TF != 3 {
		t.Fatalf("postings(lahore) = %v", pl)
	}
	if idx.DocLen(0) != 4 || idx.DocLen(3) != 4 {
		t.Fatalf("doc lengths: %v %v", idx.DocLen(0), idx.DocLen(3))
	}
	if idx.AvgDocLen() != 4 {
		t.Fatalf("AvgDocLen = %v", idx.AvgDocLen())
	}
	if s := idx.String(); !strings.Contains(s, "docs=4") {
		t.Fatalf("String = %s", s)
	}
}

// TestAddFoldsRuns: a run of k equal terms is one posting with TF k, and
// the document length is the sum of the TFs.
func TestAddFoldsRuns(t *testing.T) {
	b := NewBuilder()
	d := b.Add([]string{"n1", "n1", "n2"})
	if d != 0 {
		t.Fatalf("first doc id = %d", d)
	}
	b.Add([]string{"n2", "n2", "n2", "n2", "n2"})
	idx := b.Build()
	if idx.DF("n2") != 2 || idx.DF("n1") != 1 {
		t.Fatalf("DFs: %d %d", idx.DF("n2"), idx.DF("n1"))
	}
	if idx.DocLen(0) != 3 || idx.DocLen(1) != 5 {
		t.Fatalf("lens: %v %v", idx.DocLen(0), idx.DocLen(1))
	}
}

func TestPostingsSortedByDoc(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 50; i++ {
		b.Add([]string{"common"})
	}
	idx := b.Build()
	pl := postings(t, idx, "common")
	if len(pl) != 50 {
		t.Fatalf("len = %d", len(pl))
	}
	for i := 1; i < len(pl); i++ {
		if pl[i].Doc <= pl[i-1].Doc {
			t.Fatal("postings not sorted by DocID")
		}
	}
}

func TestEmptyIndex(t *testing.T) {
	idx := NewBuilder().Build()
	if idx.NumDocs() != 0 || idx.NumTerms() != 0 || idx.AvgDocLen() != 0 {
		t.Fatal("empty index not empty")
	}
	if postings(t, idx, "x") != nil {
		t.Fatal("postings in empty index")
	}
}

func TestZeroValueBuilder(t *testing.T) {
	var b Builder
	add(&b, []string{"a", "b", "a"})
	idx := b.Build()
	if idx.NumDocs() != 1 || idx.DF("a") != 1 {
		t.Fatal("zero-value Builder broken")
	}
	if got := postings(t, idx, "a")[0].TF; got != 2 {
		t.Fatalf("TF(a) = %v", got)
	}
}
