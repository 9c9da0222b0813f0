package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// do issues a request with a method/body and decodes the JSON reply.
func do(t *testing.T, ts *httptest.Server, method, path, body string, want int, out any) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, want)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s: %v", method, path, err)
		}
	}
}

func TestDocUpsertEndpoint(t *testing.T) {
	ts := testServer(t)
	var stats StatsResponse
	get(t, ts, "/v1/stats", http.StatusOK, &stats)
	before := stats.Docs

	// Insert a new document, then find it.
	var ack DocResponse
	do(t, ts, "POST", "/v1/docs", `{"id": 4711, "title": "late", "text": "A late bulletin about Lahore."}`, http.StatusOK, &ack)
	if ack.ID != 4711 || ack.Op != "upsert" || ack.Docs != before+1 {
		t.Fatalf("upsert ack: %+v", ack)
	}
	var sr SearchResponse
	get(t, ts, "/v1/search?q=late+bulletin+about+Lahore&k=1", http.StatusOK, &sr)
	if len(sr.Results) == 0 || sr.Results[0].ID != 4711 {
		t.Fatalf("posted doc not searchable: %+v", sr.Results)
	}

	// Replace it; the doc count must not change and the new text wins.
	do(t, ts, "POST", "/v1/docs", `{"id": 4711, "title": "fixed", "text": "A corrected bulletin about volcanic eruptions in Iceland."}`, http.StatusOK, &ack)
	if ack.Docs != before+1 {
		t.Fatalf("update changed doc count: %+v", ack)
	}
	get(t, ts, "/v1/search?q=volcanic+eruptions+in+Iceland&k=1", http.StatusOK, &sr)
	if len(sr.Results) == 0 || sr.Results[0].ID != 4711 || sr.Results[0].Title != "fixed" {
		t.Fatalf("updated doc not served: %+v", sr.Results)
	}

	// Malformed bodies answer 400 with the uniform envelope.
	for name, body := range map[string]string{
		"no-id":    `{"title": "x", "text": "y"}`,
		"neg-id":   `{"id": -1, "text": "y"}`,
		"no-text":  `{"id": 5}`,
		"bad-json": `{"id": `,
		"unknown":  `{"id": 5, "text": "y", "bogus": 1}`,
	} {
		var e ErrorResponse
		do(t, ts, "POST", "/v1/docs", body, http.StatusBadRequest, &e)
		if e.Error.Code != "bad_request" {
			t.Fatalf("%s: error %+v", name, e)
		}
	}

	// Method misuse: GET on the docs collection is not routed.
	resp, err := http.Get(ts.URL + "/v1/docs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("GET /v1/docs unexpectedly succeeded")
	}
}

func TestDocDeleteEndpoint(t *testing.T) {
	ts := testServer(t)
	// Find a real document to delete.
	var sr SearchResponse
	get(t, ts, "/v1/search?q=Taliban+bombing+in+Lahore&k=1", http.StatusOK, &sr)
	if len(sr.Results) == 0 {
		t.Fatal("no seed result")
	}
	id := sr.Results[0].ID
	var stats StatsResponse
	get(t, ts, "/v1/stats", http.StatusOK, &stats)
	before := stats.Docs

	var ack DocResponse
	do(t, ts, "DELETE", "/v1/docs/"+itoa(id), "", http.StatusOK, &ack)
	if ack.ID != id || ack.Op != "delete" || ack.Docs != before-1 {
		t.Fatalf("delete ack: %+v", ack)
	}
	get(t, ts, "/v1/search?q=Taliban+bombing+in+Lahore&k=50", http.StatusOK, &sr)
	for _, r := range sr.Results {
		if r.ID == id {
			t.Fatal("deleted doc still served")
		}
	}
	// Stats reflect the tombstone.
	get(t, ts, "/v1/stats", http.StatusOK, &stats)
	if stats.Docs != before-1 || stats.DeletedDocs != 1 || stats.Segments < 1 {
		t.Fatalf("stats after delete: %+v", stats)
	}

	// Double delete and unknown ids answer 404; junk ids answer 400.
	var e ErrorResponse
	do(t, ts, "DELETE", "/v1/docs/"+itoa(id), "", http.StatusNotFound, &e)
	if e.Error.Code != "unknown_document" {
		t.Fatalf("double delete error: %+v", e)
	}
	do(t, ts, "DELETE", "/v1/docs/999999", "", http.StatusNotFound, &e)
	if e.Error.Code != "unknown_document" {
		t.Fatalf("unknown id error: %+v", e)
	}
	do(t, ts, "DELETE", "/v1/docs/notanumber", "", http.StatusBadRequest, &e)
	if e.Error.Code != "bad_request" {
		t.Fatalf("junk id error: %+v", e)
	}
	// Routes live under /v1/ only: an unversioned write finds no route.
	do(t, ts, "POST", "/docs", `{"id": 5150, "text": "An unversioned bulletin about Peshawar."}`, http.StatusNotFound, nil)
	do(t, ts, "DELETE", "/docs/1", "", http.StatusNotFound, nil)
}

func itoa(v int) string { return strconv.Itoa(v) }
