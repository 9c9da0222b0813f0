package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"newslink"
	"newslink/internal/corpus"
)

func testEngine(t *testing.T) *newslink.Engine {
	t.Helper()
	g, arts := corpus.Sample()
	e := newslink.New(g, newslink.DefaultConfig())
	for _, a := range arts {
		if err := e.Add(newslink.Document{ID: a.ID, Title: a.Title, Text: a.Text}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	return e
}

func testServer(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(testEngine(t), opts...).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, ts *httptest.Server, path string, want int, out any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
	}
}

// getErr asserts the uniform error envelope and returns its code/message.
func getErr(t *testing.T, ts *httptest.Server, path string, want int) ErrorBody {
	t.Helper()
	var e ErrorResponse
	get(t, ts, path, want, &e)
	if e.Error.Code == "" || e.Error.Message == "" {
		t.Fatalf("GET %s: incomplete error envelope %+v", path, e)
	}
	return e.Error
}

func TestSearchEndpoint(t *testing.T) {
	ts := testServer(t)
	var got SearchResponse
	get(t, ts, "/v1/search?q=Taliban+bombing+in+Lahore&k=3", http.StatusOK, &got)
	if len(got.Results) == 0 {
		t.Fatal("no results")
	}
	if got.Results[0].ID != 1 {
		t.Fatalf("top result = %+v, want the bombing story", got.Results[0])
	}
	if got.K != 3 || got.Query == "" {
		t.Fatalf("echo fields wrong: %+v", got)
	}
}

func TestSearchPerRequestOverrides(t *testing.T) {
	ts := testServer(t)
	// beta=1 drops the pure-text business story that beta=0 ranks first.
	var text SearchResponse
	get(t, ts, "/v1/search?q=quarterly+earnings+beat+expectations&k=2&beta=0", http.StatusOK, &text)
	if len(text.Results) == 0 || text.Results[0].ID != 7 {
		t.Fatalf("beta=0: %+v", text.Results)
	}
	var graph SearchResponse
	get(t, ts, "/v1/search?q=quarterly+earnings+beat+expectations&k=2&beta=1", http.StatusOK, &graph)
	if len(graph.Results) != 0 {
		t.Fatalf("beta=1 entity-free query returned %+v", graph.Results)
	}
	// A tiny explicit pool still returns results.
	var pooled SearchResponse
	get(t, ts, "/v1/search?q=Taliban+bombing&k=1&pool=2", http.StatusOK, &pooled)
	if len(pooled.Results) == 0 {
		t.Fatal("pool=2 returned nothing")
	}
	getErr(t, ts, "/v1/search?q=x&beta=7", http.StatusBadRequest)
	getErr(t, ts, "/v1/search?q=x&beta=abc", http.StatusBadRequest)
	getErr(t, ts, "/v1/search?q=x&pool=-1", http.StatusBadRequest)
	// An oversized pool is rejected at the edge like an oversized k: it must
	// never reach the engine and size allocations there.
	getErr(t, ts, "/v1/search?q=x&k=1&pool=500000000", http.StatusBadRequest)
}

func TestSearchValidation(t *testing.T) {
	ts := testServer(t)
	e := getErr(t, ts, "/v1/search", http.StatusBadRequest)
	if e.Code != "bad_request" || !strings.Contains(e.Message, "q") {
		t.Fatalf("error = %+v", e)
	}
	getErr(t, ts, "/v1/search?q=x&k=abc", http.StatusBadRequest)
	getErr(t, ts, "/v1/search?q=x&k=0", http.StatusBadRequest)
	getErr(t, ts, "/v1/search?q=x&k=99999", http.StatusBadRequest)
	// Legacy alias uses the same envelope.
	getErr(t, ts, "/v1/search?q=x&k=0", http.StatusBadRequest)
	// A query matching nothing returns an empty array, not null.
	resp, err := http.Get(ts.URL + "/v1/search?q=zzzzqqqq&k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if string(raw["results"]) == "null" {
		t.Fatal("results must be [] not null")
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts := testServer(t)
	var got ExplainResponse
	get(t, ts, "/v1/explain?q=Fighting+between+Taliban+and+Pakistan+in+Upper+Dir&id=1&paths=4",
		http.StatusOK, &got)
	if len(got.Explanation.SharedEntities) == 0 {
		t.Fatal("no shared entities")
	}
	if len(got.Explanation.Paths) == 0 {
		t.Fatal("no paths")
	}
	for _, p := range got.Explanation.Paths {
		if p.Rendered == "" || len(p.Nodes) != len(p.Relations)+1 {
			t.Fatalf("bad path %+v", p)
		}
	}
	getErr(t, ts, "/v1/explain?q=x", http.StatusBadRequest)
	getErr(t, ts, "/v1/explain?id=1", http.StatusBadRequest)
	if e := getErr(t, ts, "/v1/explain?q=x&id=9999", http.StatusNotFound); e.Code != "unknown_document" {
		t.Fatalf("error code = %+v", e)
	}
	getErr(t, ts, "/v1/explain?q=x&id=9999", http.StatusNotFound)
}

func TestRelatedEndpoint(t *testing.T) {
	ts := testServer(t)
	var got RelatedResponse
	get(t, ts, "/v1/related/1?k=3", http.StatusOK, &got)
	if got.DocID != 1 || got.K != 3 {
		t.Fatalf("echo fields wrong: %+v", got)
	}
	if len(got.Results) == 0 {
		t.Fatal("no related results for an embedded document")
	}
	for _, r := range got.Results {
		if r.ID == 1 {
			t.Fatalf("related results include the source document: %+v", got.Results)
		}
	}
	// The sample corpus carries no timestamps (Time 0), so any after>0
	// window filters every candidate out — still a 200 with empty results.
	var filtered RelatedResponse
	get(t, ts, "/v1/related/1?k=3&after=1", http.StatusOK, &filtered)
	if len(filtered.Results) != 0 {
		t.Fatalf("after=1 over a Time-0 corpus returned %+v", filtered.Results)
	}
	if e := getErr(t, ts, "/v1/related/9999", http.StatusNotFound); e.Code != "unknown_document" {
		t.Fatalf("error code = %+v", e)
	}
	getErr(t, ts, "/v1/related/abc", http.StatusBadRequest)
	getErr(t, ts, "/v1/related/1?k=0", http.StatusBadRequest)
	getErr(t, ts, "/v1/related/1?k=5000", http.StatusBadRequest)
	getErr(t, ts, "/v1/related/1?pool=-1", http.StatusBadRequest)
}

func TestFilterParamValidation(t *testing.T) {
	ts := testServer(t)
	getErr(t, ts, "/v1/search?q=x&after=abc", http.StatusBadRequest)
	getErr(t, ts, "/v1/search?q=x&before=1.5", http.StatusBadRequest)
	getErr(t, ts, "/v1/related/1?after=abc", http.StatusBadRequest)
	getErr(t, ts, "/v1/explain?q=x&id=1&before=abc", http.StatusBadRequest)
	over := strings.Repeat("&entity=x", maxEntityFilters+1)
	getErr(t, ts, "/v1/search?q=x"+over, http.StatusBadRequest)
	// At the cap the request is accepted.
	var ok SearchResponse
	get(t, ts, "/v1/search?q=Taliban+bombing&k=3"+strings.Repeat("&entity=Taliban", maxEntityFilters),
		http.StatusOK, &ok)
	// An entity facet restricts results to documents whose embedding
	// contains the entity; an unresolvable label matches nothing.
	var faceted SearchResponse
	get(t, ts, "/v1/search?q=Taliban+bombing&k=5&entity=Taliban", http.StatusOK, &faceted)
	if len(faceted.Results) == 0 {
		t.Fatal("entity=Taliban returned nothing for a Taliban query")
	}
	var none SearchResponse
	get(t, ts, "/v1/search?q=Taliban+bombing&k=5&entity=no+such+entity+zzz", http.StatusOK, &none)
	if len(none.Results) != 0 {
		t.Fatalf("unresolvable entity facet returned %+v", none.Results)
	}
}

func TestHealthAndStats(t *testing.T) {
	ts := testServer(t)
	var h map[string]string
	get(t, ts, "/v1/healthz", http.StatusOK, &h)
	if h["status"] != "ok" {
		t.Fatalf("health = %v", h)
	}
	var s StatsResponse
	get(t, ts, "/v1/stats", http.StatusOK, &s)
	if s.Docs == 0 || s.KGNodes == 0 || s.KGEdges == 0 || s.KGLabels == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestConcurrentRequests(t *testing.T) {
	ts := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := "Taliban+attack"
			if i%2 == 1 {
				q = "Clinton+and+Sanders+election"
			}
			resp, err := http.Get(ts.URL + "/v1/search?q=" + q + "&k=5")
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestDOTEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/dot?q=Taliban+fighting+in+Upper+Dir+Pakistan&id=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/vnd.graphviz" {
		t.Fatalf("content type %q", ct)
	}
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	if !strings.Contains(string(body[:n]), "digraph") {
		t.Fatalf("body: %s", body[:n])
	}
	getErr(t, ts, "/v1/dot?q=x", http.StatusBadRequest)
	getErr(t, ts, "/v1/dot?q=Taliban&id=9999", http.StatusNotFound)
	// Entity-free document has no embedding to draw.
	if e := getErr(t, ts, "/v1/dot?q=Taliban+Pakistan&id=7", http.StatusNotFound); e.Code != "no_embeddings" {
		t.Fatalf("error code = %+v", e)
	}
}

// TestQueryTimeoutMapsTo504: a server-side query deadline in the past must
// surface as 504 with the deadline_exceeded code, not 500.
func TestQueryTimeoutMapsTo504(t *testing.T) {
	ts := testServer(t, WithQueryTimeout(time.Nanosecond))
	if e := getErr(t, ts, "/v1/search?q=Taliban+attack&k=3", http.StatusGatewayTimeout); e.Code != "deadline_exceeded" {
		t.Fatalf("error = %+v", e)
	}
	if e := getErr(t, ts, "/v1/explain?q=Taliban&id=1", http.StatusGatewayTimeout); e.Code != "deadline_exceeded" {
		t.Fatalf("error = %+v", e)
	}
}

// TestEngineErrorMapping drives writeEngineError through the statuses the
// handler contract promises.
func TestEngineErrorMapping(t *testing.T) {
	s := New(testEngine(t))
	rec := func(err error) (int, ErrorBody) {
		w := httptest.NewRecorder()
		s.writeEngineError(w, err)
		var e ErrorResponse
		if derr := json.NewDecoder(w.Body).Decode(&e); derr != nil {
			t.Fatal(derr)
		}
		return w.Code, e.Error
	}
	if code, e := rec(context.Canceled); code != statusClientClosedRequest || e.Code != "client_closed_request" {
		t.Fatalf("canceled -> %d %+v", code, e)
	}
	if code, e := rec(context.DeadlineExceeded); code != http.StatusGatewayTimeout || e.Code != "deadline_exceeded" {
		t.Fatalf("deadline -> %d %+v", code, e)
	}
	if code, _ := rec(newslink.ErrNotBuilt); code != http.StatusServiceUnavailable {
		t.Fatalf("not built -> %d", code)
	}
	if code, _ := rec(newslink.ErrInvalidK); code != http.StatusBadRequest {
		t.Fatalf("invalid k -> %d", code)
	}
}
