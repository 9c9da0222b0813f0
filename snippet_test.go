package newslink

import (
	"context"
	"testing"

	"newslink/internal/nlp"
)

// referenceSnippet is the engine's snippet as it was before the streaming
// analyzer: split the text, re-analyze every sentence into a term slice,
// count the terms found in a per-call map. It is the oracle the topk stage
// is held to; the analyzer's own reference (tokenizer, sentence splitter,
// stemmer) and the corpus-wide differential and fuzz suites live in
// internal/nlp (reference_test.go, scan_test.go).
func referenceSnippet(text string, qTerms []string) string {
	if len(qTerms) == 0 {
		return ""
	}
	want := make(map[string]bool, len(qTerms))
	for _, t := range qTerms {
		want[t] = true
	}
	best, bestScore := "", 0
	for _, sent := range nlp.SplitSentences(text) {
		score := 0
		for _, t := range nlp.Terms(sent) {
			if want[t] {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = sent, score
		}
	}
	return best
}

// TestSearchSnippetsMatchReference pins the topk stage: every result of a
// real search carries the reference's snippet for the query's terms, and
// the exported Snippet seam agrees.
func TestSearchSnippetsMatchReference(t *testing.T) {
	e, _, arts := filterFixture(t)
	byID := make(map[int]string, len(arts))
	for _, a := range arts {
		byID[a.ID] = a.Text
	}
	for i := 0; i < len(arts); i += 9 {
		terms, _, err := e.AnalyzeQuery(context.Background(), arts[i].Title)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Search(arts[i].Title, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 {
			t.Fatalf("query %q returned nothing", arts[i].Title)
		}
		for _, r := range res {
			want := referenceSnippet(byID[r.ID], terms)
			if r.Snippet != want || Snippet(byID[r.ID], terms) != want {
				t.Fatalf("query %q doc %d:\n got %q\nwant %q", arts[i].Title, r.ID, r.Snippet, want)
			}
		}
	}
}

// TestGatherSnippetScanDoesNotAllocate is the allocation floor of result
// materialization: with the query's term set compiled once, fetching k=10
// documents and picking each one's snippet allocates nothing.
func TestGatherSnippetScanDoesNotAllocate(t *testing.T) {
	e, _, arts := filterFixture(t)
	terms, _, err := e.AnalyzeQuery(context.Background(), arts[0].Title+" "+arts[3].Title)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := e.acquire()
	if err != nil {
		t.Fatal(err)
	}
	set := nlp.NewTermSet(terms)
	found := 0
	allocs := testing.AllocsPerRun(50, func() {
		for pos := 0; pos < 10; pos++ {
			if d, _ := snap.doc(pos); set.BestSentence(d.Text) != "" {
				found++
			}
		}
	})
	if found == 0 {
		t.Fatal("no document matched the query terms; the scan never reached the probe")
	}
	if allocs != 0 {
		t.Fatalf("k=10 gather: %v allocs/run inside the snippet scan, want 0", allocs)
	}
}
