package cluster

import (
	"net/http"
	"testing"
	"time"
)

// postForCode posts a body to a worker RPC endpoint and asserts the
// status and error-envelope code of the reply.
func postForCode(t *testing.T, url, body string, wantStatus int, wantCode string) {
	t.Helper()
	rep, err := fetch(http.MethodPost, url, body)
	if err != nil || rep.status != wantStatus || rep.code() != wantCode {
		t.Fatalf("POST %s: %d %s (%v), want %d %s", url, rep.status, rep.raw, err, wantStatus, wantCode)
	}
}

// code is the error envelope's code in a reply, "" if it carries none.
func (rep reply) code() string {
	env, _ := rep.body["error"].(map[string]any)
	code, _ := env["code"].(string)
	return code
}

// mustMarshal encodes a message the way the router and workers do:
// data-plane messages as binary frames, control-plane ones as JSON.
func mustMarshal(t testing.TB, v any) string {
	t.Helper()
	data, err := encodeRPC(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestWorkerUnassignedErrorPaths pins the RPC error contract of a
// worker that has no assignment yet: malformed bodies are 400s with a
// typed code, well-formed requests are 503 unassigned (the router's
// signal to re-assign), the read-only endpoints stay serviceable, and
// the worker serves neither an info route nor artifacts.
func TestWorkerUnassignedErrorPaths(t *testing.T) {
	_, g := buildSnapshot(t)
	_, endpoints := startWorkers(t, g, 1)
	base := endpoints[0][0]

	// Decode errors on every RPC: each handler rejects junk with 400.
	for _, ep := range []string{"assign", "search"} {
		postForCode(t, base+"/v1/shard/"+ep, "{junk", http.StatusBadRequest, "bad_request")
	}

	// The data plane takes binary frames only: what used to be a valid JSON
	// request is malformed now, not a second accepted form.
	postForCode(t, base+"/v1/shard/search", `{"plan":"p","k":5}`, http.StatusBadRequest, "bad_request")

	// No RPC carries statistics, documents or explanations any more: those
	// routes are gone, not refusing.
	getJSON(t, base+"/v1/shard/stats", http.StatusNotFound, nil)
	for _, ep := range []string{"stats", "docs", "explain"} {
		postForCode(t, base+"/v1/shard/"+ep, "NL", http.StatusNotFound, "")
	}

	// Valid messages against an unassigned worker: 503 unassigned.
	postForCode(t, base+"/v1/shard/search", mustMarshal(t, &SearchRequest{Plan: "p", K: 5}),
		http.StatusServiceUnavailable, "unassigned")

	// readyz says not ready; healthz and metrics answer regardless.
	getJSON(t, base+"/v1/readyz", http.StatusServiceUnavailable, nil)
	getJSON(t, base+"/v1/healthz", http.StatusOK, nil)
	var metrics map[string]any
	getJSON(t, base+"/v1/metrics", http.StatusOK, &metrics)
	if len(metrics) != 0 {
		t.Fatalf("unassigned worker reported metrics %v, want none", metrics)
	}

	// The assignment is the whole control plane, and only the router
	// serves artifacts: neither route exists on a worker.
	getJSON(t, base+"/v1/shard/info", http.StatusNotFound, nil)
	getJSON(t, base+"/v1/shard/blob/seg-0123456789abcdef.text.idx", http.StatusNotFound, nil)
}

// TestWorkerAssignedErrorPaths exercises the post-assignment error
// contract: plan mismatches are 409 (re-assign, don't retry), and the
// readiness and metrics endpoints reflect the installed assignment.
func TestWorkerAssignedErrorPaths(t *testing.T) {
	dir, g := buildSnapshot(t)
	_, endpoints := startWorkers(t, g, 3)
	rt, _ := startRouter(t, dir, g, Config{Endpoints: endpoints})
	plan := rt.Plan().ID
	base := endpoints[0][0]

	postForCode(t, base+"/v1/shard/search", mustMarshal(t, &SearchRequest{Plan: "bogus", K: 5}),
		http.StatusConflict, "plan_mismatch")
	postForCode(t, base+"/v1/shard/search", mustMarshal(t, &SearchRequest{Plan: plan, K: 0}),
		http.StatusBadRequest, "bad_request")

	getJSON(t, base+"/v1/readyz", http.StatusOK, nil)
	var metrics map[string]any
	getJSON(t, base+"/v1/metrics", http.StatusOK, &metrics)
	if len(metrics) == 0 {
		t.Fatal("assigned worker reported no metrics")
	}
}

// TestRouterParamValidation pins the router's own answers beyond the 400s
// TestMalformedSearchSameOnBothFrontDoors covers: a document id outside
// the snapshot (or tombstoned) is 404 from the router's own engine, and
// the blob endpoint refuses names outside the artifact grammar.
func TestRouterParamValidation(t *testing.T) {
	_, _, _, _, ts := startCluster(t, Config{})
	getJSON(t, ts.URL+"/v1/explain?q=x&id=999999", http.StatusNotFound, nil)

	var metrics map[string]any
	getJSON(t, ts.URL+"/v1/metrics", http.StatusOK, &metrics)
	if len(metrics) == 0 {
		t.Fatal("router reported no metrics")
	}

	// The router's blob endpoint serves every plan artifact by its
	// content-addressed name (TestEmptyWorkerFetchesEveryArtifact fetches
	// them all). Names outside the artifact grammar are rejected before
	// touching the filesystem; well-formed but absent names are 404.
	getJSON(t, ts.URL+"/v1/shard/blob/..%2Fmanifest.json", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/shard/blob/manifest.json", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/shard/blob/seg-0123456789abcdef.text.idx", http.StatusNotFound, nil)
}

// TestRouterDeadlineExceeded pins the 504 mapping: a request budget too
// small for even one scatter pass surfaces as deadline_exceeded, not as
// a 500 or a degraded 200.
func TestRouterDeadlineExceeded(t *testing.T) {
	_, _, _, _, ts := startCluster(t, Config{RequestTimeout: time.Nanosecond})
	rep, err := fetch(http.MethodGet, ts.URL+"/v1/search?q=border", "")
	if err != nil || rep.status != http.StatusGatewayTimeout || rep.code() != "deadline_exceeded" {
		t.Fatalf("%d %s (%v), want 504 deadline_exceeded", rep.status, rep.raw, err)
	}
}

// TestNewWorkerDefaultLogger covers the nil-logger construction path
// used when the worker is embedded without explicit logging.
func TestNewWorkerDefaultLogger(t *testing.T) {
	_, g := buildSnapshot(t)
	w := NewWorker("solo", t.TempDir(), g, nil)
	if w.ID() != "solo" {
		t.Fatalf("worker id %q, want solo", w.ID())
	}
}
