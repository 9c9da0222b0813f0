package qeprf

import (
	"slices"
	"sort"
	"testing"

	"newslink/internal/index"
	"newslink/internal/kg"
	"newslink/internal/nlp"
	"newslink/internal/search"
)

// testWorld builds a tiny KG and corpus exercising vocabulary mismatch: the
// query mentions Khyber, the target document mentions only Peshawar, and
// the KG description of Khyber links them.
func testWorld() (*kg.Graph, *index.Index, [][]string, []string) {
	b := kg.NewBuilder(4)
	khyber := b.AddNode("Khyber", kg.KindGPE, "a province near Peshawar in Pakistan")
	peshawar := b.AddNode("Peshawar", kg.KindGPE, "a city in Khyber")
	pakistan := b.AddNode("Pakistan", kg.KindGPE, "a country")
	taliban := b.AddNode("Taliban", kg.KindOrg, "a militant group in Khyber")
	b.AddEdgeByName(peshawar, khyber, "located in", 1)
	b.AddEdgeByName(khyber, pakistan, "located in", 1)
	b.AddEdgeByName(taliban, khyber, "active in", 1)
	g := b.Build()

	docs := []string{
		"Militants attacked a convoy near Peshawar and wounded twelve.",
		"The festival in Lahore drew enormous crowds of dancers.",
		"Stock markets rallied after the earnings reports were published.",
		"Clashes continued in the province as the army advanced.",
	}
	ib := index.NewBuilder()
	var docTerms [][]string
	for _, d := range docs {
		terms := nlp.Terms(d)
		docTerms = append(docTerms, terms)
		sorted := slices.Clone(terms)
		sort.Strings(sorted)
		ib.Add(sorted)
	}
	return g, ib.Build(), docTerms, docs
}

func TestKGExpansionBridgesVocabularyMismatch(t *testing.T) {
	g, idx, docTerms, _ := testWorld()
	e := New(g, idx, docTerms, DefaultConfig())
	// "Khyber" appears in no document; its KG description mentions Peshawar.
	hits := mustSearch(t, e, "Violence in Khyber", 3)
	if len(hits) == 0 {
		t.Fatal("expansion found nothing")
	}
	if hits[0].Doc != 0 {
		t.Fatalf("top hit = %v, want the Peshawar document (0)", hits[0])
	}
}

func mustSearch(t *testing.T, e *Engine, query string, k int) []search.Hit {
	t.Helper()
	hits, err := e.Search(query, k)
	if err != nil {
		t.Fatal(err)
	}
	return hits
}

func TestExpansionDisabled(t *testing.T) {
	g, idx, docTerms, _ := testWorld()
	e := New(g, idx, docTerms, Config{})
	// Without any expansion the Khyber query matches nothing.
	if hits := mustSearch(t, e, "Khyber", 3); len(hits) != 0 {
		t.Fatalf("no-expansion hits = %v", hits)
	}
	// Plain term queries still work.
	if hits := mustSearch(t, e, "festival crowds", 3); len(hits) == 0 || hits[0].Doc != 1 {
		t.Fatalf("plain query hits = %v", hits)
	}
}

func TestPRFPullsRelatedDocs(t *testing.T) {
	g, idx, docTerms, _ := testWorld()
	cfg := DefaultConfig()
	cfg.KGTerms = 0 // isolate the PRF mechanism
	cfg.FeedbackDocs = 1
	cfg.FeedbackTerms = 20
	cfg.FeedbackWeight = 0.8
	e := New(g, idx, docTerms, cfg)
	hits := mustSearch(t, e, "convoy attacked", 4)
	if len(hits) == 0 || hits[0].Doc != 0 {
		t.Fatalf("hits = %v, want doc 0 first", hits)
	}
}

func TestTopWeighted(t *testing.T) {
	got := topWeighted(map[string]float64{"a": 3, "b": 2, "c": 1}, 2, 0.5)
	if len(got) != 2 || got["a"] != 0.5 || got["b"] != 0.5 {
		t.Fatalf("topWeighted = %v", got)
	}
	if got := topWeighted(map[string]float64{"a": 1}, 5, 1); len(got) != 1 {
		t.Fatalf("n>len = %v", got)
	}
	// Equal scores break ties alphabetically.
	got = topWeighted(map[string]float64{"z": 1, "a": 1, "m": 1}, 2, 1)
	if _, ok := got["a"]; !ok {
		t.Fatalf("tie-break wrong: %v", got)
	}
	if _, ok := got["z"]; ok {
		t.Fatalf("tie-break wrong: %v", got)
	}
}
