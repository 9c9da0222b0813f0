package newslink

import (
	"context"
	"strings"
	"sync"
	"testing"

	"newslink/internal/obs"
)

// TestSearchAndExplainRecordAllStageSpans drives one traced search plus one
// traced explain and asserts the full six-stage pipeline breakdown:
// analyze, bow-retrieve, bon-retrieve, fuse and topk from the search,
// path-enumeration from the explain.
func TestSearchAndExplainRecordAllStageSpans(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	q := "Military conflicts between Pakistan and Taliban"

	ctx, tr := obs.WithTrace(context.Background())
	results, err := e.SearchContext(ctx, Query{Text: q, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	if _, err := e.ExplainContext(ctx, q, results[0].ID, 3); err != nil {
		t.Fatal(err)
	}

	got := map[string]obs.Span{}
	for _, sp := range tr.Spans() {
		if _, dup := got[sp.Stage]; !dup {
			got[sp.Stage] = sp
		}
	}
	for _, stage := range []string{
		obs.StageAnalyze, obs.StageBOW, obs.StageBON,
		obs.StageFuse, obs.StageTopK, obs.StagePaths,
	} {
		if _, ok := got[stage]; !ok {
			t.Errorf("stage %q missing from trace (got %d spans)", stage, len(tr.Spans()))
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// The first analyze span must be a cache miss, and retrieval spans must
	// carry their candidate/pruning attributes.
	if v, ok := got[obs.StageAnalyze].Attr("cache_hit"); !ok || v != 0 {
		t.Fatalf("first analyze span cache_hit = %d, %v (want recorded miss)", v, ok)
	}
	for _, stage := range []string{obs.StageBOW, obs.StageBON} {
		sp := got[stage]
		if v, ok := sp.Attr("candidates"); !ok || v <= 0 {
			t.Fatalf("%s candidates attr = %d, %v", stage, v, ok)
		}
		if v, ok := sp.Attr("blocks_decoded"); !ok || v < 1 {
			t.Fatalf("%s blocks_decoded attr = %d, %v", stage, v, ok)
		}
	}
	if v, ok := got[obs.StagePaths].Attr("pairs"); !ok || v <= 0 {
		t.Fatalf("path-enumeration pairs attr = %d, %v", v, ok)
	}

	// Explain reused the query-analysis cache: its analyze span is a hit.
	var sawHit bool
	for _, sp := range tr.Spans() {
		if sp.Stage == obs.StageAnalyze {
			if v, _ := sp.Attr("cache_hit"); v == 1 {
				sawHit = true
			}
		}
	}
	if !sawHit {
		t.Fatal("explain's analyze span did not hit the query cache")
	}
}

// TestUntracedSearchStillFeedsMetrics checks that plain SearchContext (no
// trace attached) records stage latencies and counters into the registry.
func TestUntracedSearchStillFeedsMetrics(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	if _, err := e.Search("Pakistan Taliban conflict", 3); err != nil {
		t.Fatal(err)
	}
	met := e.met
	if got := met.searches.Value(); got != 1 {
		t.Fatalf("searches_total = %d, want 1", got)
	}
	if got := met.searchSeconds.Count(); got != 1 {
		t.Fatalf("search_seconds count = %d, want 1", got)
	}
	for _, stage := range []string{obs.StageAnalyze, obs.StageBOW, obs.StageBON, obs.StageFuse, obs.StageTopK} {
		if met.stages[stage].Count() == 0 {
			t.Fatalf("stage %q histogram empty after untraced search", stage)
		}
	}
	if met.docs.Value() != int64(e.NumDocs()) {
		t.Fatalf("docs gauge = %d, want %d", met.docs.Value(), e.NumDocs())
	}
	// The registry renders both formats without error.
	var b strings.Builder
	if err := e.Metrics().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "newslink_searches_total") {
		t.Fatal("JSON exposition missing newslink_searches_total")
	}
	b.Reset()
	if err := e.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `newslink_query_stage_seconds_bucket{stage="analyze"`) {
		t.Fatal("Prometheus exposition missing stage histogram")
	}
}

// TestConcurrentSearchesHammerMetrics runs traced and untraced searches
// plus explains from many goroutines; under -race this is the regression
// test that the metrics/trace instrumentation introduces no data races in
// the read path, and the counter totals double-check the atomics.
func TestConcurrentSearchesHammerMetrics(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	queries := []string{
		"Military conflicts between Pakistan and Taliban",
		"US presidential election campaign",
		"earthquake relief efforts",
	}
	const workers, per = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ctx := context.Background()
				var tr *obs.Trace
				if i%2 == 0 {
					ctx, tr = obs.WithTrace(ctx)
				}
				res, err := e.SearchContext(ctx, Query{Text: queries[(w+i)%len(queries)], K: 3})
				if err != nil {
					t.Error(err)
					return
				}
				if tr != nil && len(tr.Spans()) == 0 {
					t.Error("traced search recorded no spans")
					return
				}
				if len(res) > 0 {
					if _, err := e.ExplainContext(ctx, queries[(w+i)%len(queries)], res[0].ID, 2); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := e.met.searches.Value(); got != workers*per {
		t.Fatalf("searches_total = %d, want %d", got, workers*per)
	}
	if hits, misses := e.met.cacheHits.Value(), e.met.cacheMisses.Value(); hits+misses == 0 {
		t.Fatalf("query cache counters empty: hits=%d misses=%d", hits, misses)
	}
}
