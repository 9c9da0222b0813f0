package newslink

import (
	"context"
	"errors"
	"strings"
	"testing"

	"newslink/internal/corpus"
)

func sampleEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	g, arts := corpus.Sample()
	e := New(g, cfg)
	for _, a := range arts {
		if err := e.Add(Document{ID: a.ID, Title: a.Title, Text: a.Text}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEndToEndSearch(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	// The paper's Example 1: querying with the Pakistan/Taliban conflict
	// story should surface the Taliban bombing story.
	res, err := e.Search("Military conflicts between Pakistan and Taliban in Upper Dir and Swat Valley.", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	top2 := []int{res[0].ID}
	if len(res) > 1 {
		top2 = append(top2, res[1].ID)
	}
	found := false
	for _, id := range top2 {
		if id == 0 || id == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("military stories not in top 2: %+v", res)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("results not sorted")
		}
	}
}

// TestOversizedPoolDepthClamped: library callers can pass any PoolDepth;
// the engine clamps it to the corpus, so an attacker-sized value cannot
// drive pool-sized allocations, and ranks as the reference does.
func TestOversizedPoolDepthClamped(t *testing.T) {
	runHistory(t, "addall 0-7; build; search q=4 k=5 pool=1099511627776")
}

func TestPureEmbeddingSearchBridgesVocabularyMismatch(t *testing.T) {
	// β=1: only subgraph embeddings, as in the paper's case study. The
	// query shares almost no keywords with doc 1 (no "bombing", no
	// "Lahore") but their embeddings overlap in Khyber.
	e := sampleEngine(t, Config{Beta: 1, Model: LCAG, MaxDepth: 6})
	res, err := e.Search("Clashes between Taliban and Pakistan forces in Upper Dir and Swat Valley.", 4)
	if err != nil {
		t.Fatal(err)
	}
	ranked := map[int]bool{}
	for _, r := range res {
		ranked[r.ID] = true
	}
	if !ranked[1] {
		t.Fatalf("β=1 failed to retrieve the related bombing story: %+v", res)
	}
	// The sports and business stories have disjoint embeddings.
	if ranked[7] {
		t.Fatalf("business story leaked into embedding-only results: %+v", res)
	}
}

func TestExplainProducesPaths(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	query := "Fighting between Taliban and Pakistan reached Upper Dir and the Swat Valley."
	exp, err := e.Explain(query, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.SharedEntities) == 0 {
		t.Fatal("no shared entities in the overlap")
	}
	joined := strings.Join(exp.SharedEntities, " ")
	if !strings.Contains(joined, "Khyber") {
		t.Fatalf("induced entity Khyber missing from overlap: %v", exp.SharedEntities)
	}
	if len(exp.Paths) == 0 {
		t.Fatal("no relationship paths")
	}
	for _, p := range exp.Paths {
		if !strings.Contains(p.Rendered, "-[") {
			t.Fatalf("path without relation rendering: %s", p.Rendered)
		}
		if len(p.Nodes) != len(p.Relations)+1 {
			t.Fatalf("path structure inconsistent: %+v", p)
		}
	}
}

func TestCaseStudyElection(t *testing.T) {
	// Figure 6: β=1 retrieval connects the Sanders/Clinton/FBI story with
	// the Trump/Sanders story through the US presidential election node.
	e := sampleEngine(t, Config{Beta: 1, Model: LCAG, MaxDepth: 6})
	query := "Sanders said voters were tired of hearing about Clinton and the FBI emails."
	res, err := e.Search(query, 3)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[int]bool{}
	for _, r := range res {
		ids[r.ID] = true
	}
	if !ids[4] && !ids[5] {
		t.Fatalf("election stories not retrieved: %+v", res)
	}
	exp, err := e.Explain(query, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	var rendered []string
	for _, p := range exp.Paths {
		rendered = append(rendered, p.Rendered)
	}
	all := strings.Join(rendered, "\n")
	if !strings.Contains(all, "US presidential election 2016") {
		t.Fatalf("paths do not pass through the election node:\n%s", all)
	}
}

func TestEngineErrors(t *testing.T) {
	g, arts := corpus.Sample()
	e := New(g, DefaultConfig())
	if _, err := e.Search("x", 1); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("Search before Build: %v, want ErrNotBuilt", err)
	}
	if _, err := e.Explain("x", 0, 1); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("Explain before Build: %v, want ErrNotBuilt", err)
	}
	if _, err := e.ExplainDOT("x", 0, "t"); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("ExplainDOT before Build: %v, want ErrNotBuilt", err)
	}
	if err := e.Build(); !errors.Is(err, ErrNoDocuments) {
		t.Fatalf("Build with no documents: %v, want ErrNoDocuments", err)
	}
	for _, a := range arts[:2] {
		if err := e.Add(Document{ID: a.ID, Title: a.Title, Text: a.Text}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Add(Document{ID: arts[0].ID, Text: "again"}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate Add: %v, want ErrDuplicateID", err)
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	if err := e.Build(); !errors.Is(err, ErrAlreadyBuilt) {
		t.Fatalf("double Build: %v, want ErrAlreadyBuilt", err)
	}
	if _, err := e.Search("x", 0); !errors.Is(err, ErrInvalidK) {
		t.Fatalf("k=0: %v, want ErrInvalidK", err)
	}
	if _, err := e.Explain("x", 999, 1); !errors.Is(err, ErrUnknownDoc) {
		t.Fatalf("unknown doc: %v, want ErrUnknownDoc", err)
	}
	if _, err := e.ExplainDOT("x", 999, "t"); !errors.Is(err, ErrUnknownDoc) {
		t.Fatalf("unknown doc DOT: %v, want ErrUnknownDoc", err)
	}
	bad := 1.5
	if _, err := e.SearchContext(context.Background(), Query{Text: "x", K: 1, Beta: &bad}); !errors.Is(err, ErrInvalidBeta) {
		t.Fatalf("beta=1.5: %v, want ErrInvalidBeta", err)
	}
}

func TestQueriesWithoutEntitiesStillWork(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	res, err := e.Search("quarterly earnings beat expectations", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ID != 7 {
		t.Fatalf("text-only query failed: %+v", res)
	}
	// β=1 with an entity-free query returns nothing rather than erroring.
	e1 := sampleEngine(t, Config{Beta: 1})
	res, err = e1.Search("quarterly earnings beat expectations", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("β=1 entity-free query returned %+v", res)
	}
}

func TestBetaZeroEqualsTextOnly(t *testing.T) {
	// β=0 must produce exactly the BM25 text ranking (Table VII's "β=0
	// reduces to Lucene").
	e0 := sampleEngine(t, Config{Beta: 0})
	eHalf := sampleEngine(t, Config{Beta: 0.5, MaxDepth: 6})
	q := "Taliban bombing in Lahore and Peshawar"
	r0, err := e0.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := eHalf.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r0) == 0 || len(rh) == 0 {
		t.Fatal("no results")
	}
	if r0[0].ID != 1 {
		t.Fatalf("BM25 top hit = %+v, want the bombing story", r0[0])
	}
}

func TestSnippets(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	res, err := e.Search("bombing attack in Lahore", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	top := res[0]
	if top.Snippet == "" {
		t.Fatal("no snippet on top result")
	}
	if !strings.Contains(strings.ToLower(top.Snippet), "lahore") &&
		!strings.Contains(strings.ToLower(top.Snippet), "bombing") {
		t.Fatalf("snippet not query-relevant: %q", top.Snippet)
	}
	// The snippet is a real sentence of the document, not fabricated text.
	found := false
	g, arts := corpus.Sample()
	_ = g
	for _, a := range arts {
		if a.ID == top.ID && strings.Contains(a.Text, top.Snippet) {
			found = true
		}
	}
	if !found {
		t.Fatalf("snippet %q not found in source document", top.Snippet)
	}
}

func TestExplainDOT(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	query := "Fighting between Taliban and Pakistan in Upper Dir"
	dot, err := e.ExplainDOT(query, 1, "test")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(dot, `digraph "test"`) {
		t.Fatalf("dot = %q", dot[:40])
	}
	if !strings.Contains(dot, "Khyber") || !strings.Contains(dot, "orange") {
		t.Fatal("overlap rendering missing")
	}
	// Entity-free document: empty rendering, no error.
	dot, err = e.ExplainDOT(query, 7, "test")
	if err != nil || dot != "" {
		t.Fatalf("entity-free doc: %q err=%v", dot, err)
	}
	if _, err := e.ExplainDOT(query, 999, "t"); err == nil {
		t.Fatal("unknown doc must fail")
	}
	unbuilt := New(e.Graph(), DefaultConfig())
	if _, err := unbuilt.ExplainDOT("x", 0, "t"); err == nil {
		t.Fatal("ExplainDOT before Build must fail")
	}
}

func TestQueryCacheSharedAcrossSearchAndExplain(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	q := "Taliban fighting near Upper Dir in Pakistan"
	if _, err := e.Search(q, 3); err != nil {
		t.Fatal(err)
	}
	if e.gs.queries.Len() != 1 {
		t.Fatalf("cache len = %d after Search", e.gs.queries.Len())
	}
	if _, err := e.Explain(q, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExplainDOT(q, 0, "t"); err != nil {
		t.Fatal(err)
	}
	if e.gs.queries.Len() != 1 {
		t.Fatalf("cache len = %d, query re-analyzed", e.gs.queries.Len())
	}
}

// TestIncrementalAddMatchesBatchBuild: documents added after Build over
// several segments rank exactly as the reference's single batch build, and
// a late document is explained.
func TestIncrementalAddMatchesBatchBuild(t *testing.T) {
	if r := runHistory(t, "add 0-2; build; search; add 3-5; search q=1; add 6-11; search q=4 k=5; explain 10 q=5"); r.shared == 0 {
		t.Fatal("the late document's explanation shares no entity")
	}
}
