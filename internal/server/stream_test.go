package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"newslink"
	"newslink/internal/corpus"
	"newslink/internal/faults"
)

// streamServer builds an engine with the async ingest pipeline (and a WAL)
// armed and serves it, returning both so tests can flush and inspect.
func streamServer(t *testing.T, extra ...newslink.Option) (*httptest.Server, *newslink.Engine) {
	t.Helper()
	g, arts := corpus.Sample()
	opts := append([]newslink.Option{
		newslink.Option(newslink.DefaultConfig()),
		newslink.WithWAL(t.TempDir()),
		newslink.WithIngestQueue(64),
	}, extra...)
	e := newslink.New(g, opts...)
	for _, a := range arts {
		if err := e.Add(newslink.Document{ID: a.ID, Title: a.Title, Text: a.Text}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	ts := httptest.NewServer(New(e).Handler())
	t.Cleanup(ts.Close)
	return ts, e
}

// TestDocStreamEndpoint: POST /v1/docs:stream acknowledges with 202 before
// the document is searchable, and after a flush the document is served.
func TestDocStreamEndpoint(t *testing.T) {
	ts, e := streamServer(t)
	var ack DocResponse
	do(t, ts, "POST", "/v1/docs:stream", `{"id": 6001, "title": "wire", "text": "A streamed bulletin about floods in Karachi."}`, http.StatusAccepted, &ack)
	if ack.ID != 6001 || ack.Op != "ingest" {
		t.Fatalf("ingest ack: %+v", ack)
	}
	e.FlushIngest()
	var sr SearchResponse
	get(t, ts, "/v1/search?q=streamed+bulletin+floods+Karachi&k=1", http.StatusOK, &sr)
	if len(sr.Results) == 0 || sr.Results[0].ID != 6001 {
		t.Fatalf("streamed doc not served: %+v", sr.Results)
	}

	// Streaming an existing ID is an upsert: same count, new content.
	before := e.NumDocs()
	do(t, ts, "POST", "/v1/docs:stream", `{"id": 6001, "title": "wire2", "text": "A corrected bulletin about receding floods."}`, http.StatusAccepted, &ack)
	e.FlushIngest()
	if got := e.NumDocs(); got != before {
		t.Fatalf("stream upsert changed doc count: %d -> %d", before, got)
	}

	// Malformed bodies answer 400 with the uniform envelope, like /v1/docs.
	for name, body := range map[string]string{
		"no-id":    `{"title": "x", "text": "y"}`,
		"no-text":  `{"id": 5}`,
		"bad-json": `{"id": `,
	} {
		var e ErrorResponse
		do(t, ts, "POST", "/v1/docs:stream", body, http.StatusBadRequest, &e)
		if e.Error.Code != "bad_request" {
			t.Fatalf("%s: error %+v", name, e)
		}
	}
}

// TestDocStreamBackpressure: a full ingest queue sheds the request with
// 429, the ingest_overload code and a Retry-After hint — never a hang and
// never an unbounded backlog.
func TestDocStreamBackpressure(t *testing.T) {
	faults.Arm(faults.New().Delay(faults.IngestApply, 50*time.Millisecond))
	defer faults.Disarm()
	ts, e := streamServer(t, newslink.WithIngestQueue(1))

	shed := 0
	for i := 0; i < 30; i++ {
		req, err := http.NewRequest("POST", ts.URL+"/v1/docs:stream",
			strings.NewReader(`{"id": `+itoa(7000+i)+`, "text": "A rapid-fire bulletin."}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			shed++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if shed == 0 {
		t.Fatal("queue of 1 never shed under a 30-request burst")
	}
	e.FlushIngest()
}
