package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestMetricsEndpointJSON(t *testing.T) {
	ts := testServer(t)
	// Serve one search so the pipeline metrics are non-zero.
	var sr SearchResponse
	get(t, ts, "/v1/search?q=Taliban+Pakistan&k=3", http.StatusOK, &sr)

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if got := doc["newslink_searches_total"].(float64); got < 1 {
		t.Fatalf("newslink_searches_total = %v, want >= 1", got)
	}
	stage, ok := doc[`newslink_query_stage_seconds{stage="analyze"}`].(map[string]any)
	if !ok {
		t.Fatalf("missing analyze stage histogram; keys: %v", keys(doc))
	}
	if stage["count"].(float64) < 1 {
		t.Fatalf("analyze stage count = %v", stage["count"])
	}
	if _, ok := stage["p95"]; !ok {
		t.Fatal("stage histogram missing p95")
	}
	if _, ok := doc[`newslink_http_requests_total{route="search"}`]; !ok {
		t.Fatalf("missing HTTP route counter; keys: %v", keys(doc))
	}
}

func keys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestMetricsEndpointPrometheus(t *testing.T) {
	// Admission control enabled so its gauge/counter register too.
	ts := testServer(t, WithMaxInFlight(8))
	var sr SearchResponse
	get(t, ts, "/v1/search?q=Taliban+Pakistan&k=3", http.StatusOK, &sr)

	resp, err := http.Get(ts.URL + "/v1/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE newslink_searches_total counter",
		"# TYPE newslink_query_stage_seconds histogram",
		`newslink_query_stage_seconds_bucket{stage="bow-retrieve",le="+Inf"}`,
		"newslink_search_seconds_count 1",
		`newslink_http_request_seconds_count{route="search"} 1`,
		// Resilience metrics are pre-registered, so dashboards see them
		// at zero before the first incident.
		"# TYPE newslink_search_degraded_total counter",
		`newslink_search_degraded_total{reason="bon_error"} 0`,
		`newslink_search_degraded_total{reason="bon_timeout"} 0`,
		"newslink_http_panics_total 0",
		// The sample corpus is one segment: nothing merged yet.
		"newslink_segment_merges_total 0",
		"newslink_segment_merged_docs_total 0",
		"newslink_http_shed_total 0",
		"newslink_http_in_flight 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Prometheus exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSearchTraceParam(t *testing.T) {
	ts := testServer(t)
	var sr SearchResponse
	get(t, ts, "/v1/search?q=Taliban+Pakistan&k=3&trace=1", http.StatusOK, &sr)
	if len(sr.Trace) == 0 {
		t.Fatal("trace=1 returned no spans")
	}
	stages := map[string]bool{}
	for _, sp := range sr.Trace {
		stages[sp.Stage] = true
		if sp.Dur < 0 {
			t.Fatalf("negative span duration: %+v", sp)
		}
	}
	for _, stage := range []string{"analyze", "bow-retrieve", "fuse", "topk"} {
		if !stages[stage] {
			t.Fatalf("trace missing stage %q: %v", stage, stages)
		}
	}

	// Untraced requests must not carry the field.
	var plain SearchResponse
	get(t, ts, "/v1/search?q=Taliban+Pakistan&k=3", http.StatusOK, &plain)
	if plain.Trace != nil {
		t.Fatalf("untraced response has trace: %v", plain.Trace)
	}

	// Explain supports the same parameter and records path enumeration.
	if len(sr.Results) > 0 {
		var er ExplainResponse
		get(t, ts, "/v1/explain?q=Taliban+Pakistan&id=0&paths=2&trace=1", http.StatusOK, &er)
		found := false
		for _, sp := range er.Trace {
			if sp.Stage == "path-enumeration" {
				found = true
			}
		}
		if !found {
			t.Fatalf("explain trace missing path-enumeration: %+v", er.Trace)
		}
	}
}

func TestRequestIDAndAccessLog(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	ts := testServer(t, WithLogger(logger))

	var sr SearchResponse
	resp, err := http.Get(ts.URL + "/v1/search?q=Taliban&k=2&trace=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("missing X-Request-Id header")
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	if !strings.Contains(out, "request_id="+id) {
		t.Fatalf("access log missing request id %q:\n%s", id, out)
	}
	if !strings.Contains(out, "path=/v1/search") || !strings.Contains(out, "status=200") {
		t.Fatalf("access log missing request fields:\n%s", out)
	}
	// Debug level + trace=1: the stage breakdown is logged too.
	if !strings.Contains(out, "stage=bow-retrieve") {
		t.Fatalf("debug log missing trace spans:\n%s", out)
	}

	// IDs are unique per request.
	resp2, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if id2 := resp2.Header.Get("X-Request-Id"); id2 == "" || id2 == id {
		t.Fatalf("second request id %q not unique vs %q", id2, id)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output
// from concurrent handlers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
