// Package server exposes a NewsLink engine over HTTP with a small JSON API
// (the paper's NE component "runs as a backend server"; this serves the
// whole search pipeline). Routes are served under /v1/ only:
//
//	GET    /v1/search?q=<text>&k=<n>[&beta=<b>][&pool=<d>][&after=<t>][&before=<t>][&entity=<label>...][&trace=1]  ranked results (Equation 3)
//	GET    /v1/related/{id}?k=<n>[&pool=<d>][&after=<t>][&before=<t>][&entity=<label>...][&trace=1]                related news by the document's BON embedding
//	GET    /v1/explain?q=<text>&id=<doc>&paths=<n>[&after=<t>][&before=<t>][&entity=<label>...][&trace=1]          overlap + relationship paths
//	GET    /v1/dot?q=<text>&id=<doc>                                  Graphviz rendering of the pair
//	POST   /v1/docs                                                   add or replace one document (upsert)
//	POST   /v1/docs:stream                                            enqueue one document for async ingestion (202)
//	DELETE /v1/docs/{id}                                              tombstone one document
//	GET    /v1/healthz                                                liveness: 200 while the process serves at all
//	GET    /v1/readyz                                                 readiness: 200, or 503 while draining
//	GET    /v1/stats                                                  engine and graph statistics
//	GET    /v1/metrics                                                metric registry as JSON
//	GET    /v1/metrics/prom                                           Prometheus text exposition
//
// The filter parameters compose conjunctively: after= and before= bound
// Document.Time inclusively (0/absent = unbounded), and entity= may repeat
// — every named entity must match the document's subgraph embedding.
// /v1/related ranks the corpus against the stored subgraph embedding of
// document {id} (pure BON, the doc-as-query scenario) and never returns
// the source document itself.
//
// Errors use a uniform JSON envelope {"error": {"code", "message"}}. A
// request whose context is cancelled by the client maps to 499, one that
// exceeds the server's query deadline to 504.
//
// The same handler is a cluster router's front door (internal/cluster):
// there the engine's postings traversals run on shard workers, writes
// answer 403 read_only, and a request no shard can serve answers 503
// shard_unavailable.
//
// The query routes (search, explain, dot) sit behind optional weighted
// admission control (WithMaxInFlight): past capacity a request waits a
// short bounded time and is then shed with 429 and a Retry-After hint.
// Handler panics are recovered, counted, and answered with a 500
// envelope. A BON-stage failure inside the engine degrades a fused
// search to BOW-only ranking — HTTP 200 with "degraded": true — instead
// of failing the request.
//
// Every request is assigned a request ID (returned as X-Request-Id) and
// logged as one structured log/slog line; search and explain accept
// trace=1, which runs the query with a per-request trace and includes the
// stage-by-stage breakdown (durations, candidate counts, cache hit/miss,
// shard fan-out) in the response.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"newslink"
	"newslink/internal/kg"
	"newslink/internal/obs"
)

// statusClientClosedRequest is the non-standard (nginx-originated) status
// for requests abandoned by the client before a response was produced.
const statusClientClosedRequest = 499

// maxPoolDepth caps the per-request candidate pool. Like the cap on k, it
// keeps an unauthenticated query parameter from sizing server allocations
// (the engine additionally clamps the pool to the corpus size).
const maxPoolDepth = 10000

// Option configures a Server.
type Option func(*Server)

// WithQueryTimeout bounds every search/explain/dot request: past d the
// request context is cancelled, traversal stops cooperatively, and the
// client receives 504 with code "deadline_exceeded". Zero disables the
// bound.
func WithQueryTimeout(d time.Duration) Option {
	return func(s *Server) { s.queryTimeout = d }
}

// WithLogger sets the structured logger for access logs and trace output.
// The default logger discards everything, keeping embedded and test servers
// quiet; newslinkd installs a text handler on stderr.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.log = l
		}
	}
}

// WithMaxInFlight enables admission control on the query routes: at most
// n weight units execute concurrently (search weighs 1; explain and dot,
// which walk the graph, weigh 2). Requests beyond capacity wait briefly
// (see WithAdmissionWait) and are then shed with 429. Zero disables
// admission control (the default).
func WithMaxInFlight(n int) Option {
	return func(s *Server) { s.maxInFlight = n }
}

// WithAdmissionWait bounds how long an over-capacity request may wait for
// admission before it is shed. Zero (the default) sheds immediately. The
// wait is deliberately short — queueing is bounded back-pressure, not a
// second queue in front of the engine.
func WithAdmissionWait(d time.Duration) Option {
	return func(s *Server) { s.admissionWait = d }
}

// Server wraps a built engine. All handlers are read-only and safe for
// concurrent use; the engine's own locking makes them safe against
// concurrent Add/Refresh as well.
type Server struct {
	engine        *newslink.Engine
	queryTimeout  time.Duration
	maxInFlight   int
	admissionWait time.Duration
	log           *slog.Logger
	registry      *obs.Registry
	requestID     func() string
	limiter       *limiter // nil when admission control is disabled
	panics        *obs.Counter
	ready         atomic.Bool
}

// New returns a Server over a built engine. HTTP-level metrics register
// into the engine's own registry, so /v1/metrics exposes the engine and
// the HTTP layer in one document. The server starts ready; SetReady
// flips /v1/readyz for drain orchestration.
func New(e *newslink.Engine, opts ...Option) *Server {
	s := &Server{
		engine:    e,
		log:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		registry:  e.Metrics(),
		requestID: newRequestID(),
	}
	for _, o := range opts {
		o(s)
	}
	s.panics = s.registry.Counter("newslink_http_panics_total",
		"Handler panics recovered by the HTTP layer.")
	if s.maxInFlight > 0 {
		s.limiter = newLimiter(s.maxInFlight, s.admissionWait, s.registry)
	}
	s.ready.Store(true)
	return s
}

// SetReady flips the readiness state served by /v1/readyz. newslinkd
// sets it to false at the start of a drain so load balancers stop
// sending new work while in-flight requests complete.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Handler returns the HTTP handler with all routes registered under /v1/.
// Every route is wrapped with request-ID assignment, panic recovery,
// access logging and HTTP metrics; the query routes additionally pass
// weighted admission control when it is enabled. Health, readiness and
// metrics are never subject to admission — an overloaded server must
// still answer its probes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := []struct {
		method  string
		pattern string // path pattern under the version prefix
		name    string // metric/log label
		h       http.HandlerFunc
		weight  int64 // 0 = exempt from admission control
	}{
		{"GET", "search", "search", s.handleSearch, 1},
		{"GET", "related/{id}", "related", s.handleRelated, 1},
		{"GET", "explain", "explain", s.handleExplain, 2},
		{"GET", "dot", "dot", s.handleDOT, 2},
		{"POST", "docs", "docs_upsert", s.handleDocUpsert, 1},
		{"POST", "docs:stream", "docs_ingest", s.handleDocIngest, 1},
		{"DELETE", "docs/{id}", "docs_delete", s.handleDocDelete, 1},
		{"GET", "healthz", "healthz", s.handleHealth, 0},
		{"GET", "readyz", "readyz", s.handleReady, 0},
		{"GET", "stats", "stats", s.handleStats, 0},
		{"GET", "metrics", "metrics", s.handleMetrics, 0},
		{"GET", "metrics/prom", "metrics/prom", s.handleMetricsProm, 0},
	}
	for _, rt := range routes {
		h := rt.h
		if rt.weight > 0 {
			h = s.limiter.admit(rt.weight, h)
		}
		mux.HandleFunc(rt.method+" /v1/"+rt.pattern, s.instrument(rt.name, h))
	}
	return mux
}

// queryContext derives the per-request context handlers pass to the engine.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.queryTimeout > 0 {
		return context.WithTimeout(r.Context(), s.queryTimeout)
	}
	return r.Context(), func() {}
}

// SearchResponse is the /search reply. Trace is present only for trace=1
// requests: one entry per pipeline stage, ordered by start offset.
// Degraded is true when the BON stage failed or timed out and the ranking
// fell back to BOW-only scoring ("bon_error" or "bon_timeout"), or — on a
// cluster router — when a shard worker was unavailable and the ranking
// covers only the live shards ("shard_unavailable"); DegradedReason then
// carries the cause. ShardsTotal/ShardsOK report the scatter fan-out on
// router responses and are absent on single-process servers.
type SearchResponse struct {
	Query          string            `json:"query"`
	K              int               `json:"k"`
	Results        []newslink.Result `json:"results"`
	Degraded       bool              `json:"degraded,omitempty"`
	DegradedReason string            `json:"degraded_reason,omitempty"`
	ShardsTotal    int               `json:"shards_total,omitempty"`
	ShardsOK       int               `json:"shards_ok,omitempty"`
	Trace          []obs.Span        `json:"trace,omitempty"`
}

// RelatedResponse is the /related/{id} reply: the SearchResponse envelope
// with the source document id in place of the query text. Related runs a
// single pure-BON leg with nothing to degrade to, so the degradation
// fields apply only on a cluster router, as in SearchResponse: with a
// shard unavailable, the ranking covers the live shards.
type RelatedResponse struct {
	DocID          int               `json:"doc_id"`
	K              int               `json:"k"`
	Results        []newslink.Result `json:"results"`
	Degraded       bool              `json:"degraded,omitempty"`
	DegradedReason string            `json:"degraded_reason,omitempty"`
	ShardsTotal    int               `json:"shards_total,omitempty"`
	ShardsOK       int               `json:"shards_ok,omitempty"`
	Trace          []obs.Span        `json:"trace,omitempty"`
}

// ExplainResponse is the /explain reply. Trace is present only for trace=1
// requests.
type ExplainResponse struct {
	Query       string               `json:"query"`
	DocID       int                  `json:"doc_id"`
	Explanation newslink.Explanation `json:"explanation"`
	Trace       []obs.Span           `json:"trace,omitempty"`
}

// StatsResponse is the /stats reply.
type StatsResponse struct {
	Docs        int `json:"docs"`
	Segments    int `json:"segments"`
	DeletedDocs int `json:"deleted_docs"`
	KGNodes     int `json:"kg_nodes"`
	KGEdges     int `json:"kg_edges"`
	KGLabels    int `json:"kg_labels"`
}

// DocPayload is the POST /docs request body. ID is a pointer so a missing
// id is distinguishable from document 0. Time is the optional event
// timestamp (Document.Time) the temporal filters compare against.
type DocPayload struct {
	ID    *int   `json:"id"`
	Title string `json:"title"`
	Text  string `json:"text"`
	Time  int64  `json:"time,omitempty"`
}

// DocResponse acknowledges a document write.
type DocResponse struct {
	ID   int    `json:"id"`
	Docs int    `json:"docs"`
	Op   string `json:"op"`
}

// ErrorBody is the inner object of the error envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse is the uniform error envelope of every non-2xx reply.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late to change the status; nothing more we can do.
		return
	}
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// WriteJSON writes v as a JSON response with the given status. It is the
// same encoder every route here uses, exported so the cluster tier
// (internal/cluster) serves the identical envelope.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

// WriteError writes the uniform error envelope {"error":{"code","message"}}.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeError(w, status, code, format, args...)
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeError(w, http.StatusBadRequest, "bad_request", format, args...)
}

// writeEngineError maps an engine error onto a status and stable error
// code: sentinel errors map to client-side statuses, context termination to
// 499/504, anything else to 500.
func (s *Server) writeEngineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		writeError(w, statusClientClosedRequest, "client_closed_request", "request cancelled")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline_exceeded", "query deadline exceeded")
	case errors.Is(err, newslink.ErrUnknownDoc):
		writeError(w, http.StatusNotFound, "unknown_document", "%v", err)
	case errors.Is(err, newslink.ErrInvalidK), errors.Is(err, newslink.ErrInvalidBeta):
		badRequest(w, "%v", err)
	case errors.Is(err, newslink.ErrNotBuilt):
		writeError(w, http.StatusServiceUnavailable, "not_built", "%v", err)
	case errors.Is(err, newslink.ErrIngestOverload):
		// The bounded ingest queue is full: back-pressure, not failure.
		// The hint is the observed queue-drain interval (depth over the
		// applier's EWMA drain rate), or a fixed second before the rate
		// is known — an interval to back off, not a precise ETA.
		w.Header().Set("Retry-After", retryAfterHint(s.engine))
		writeError(w, http.StatusTooManyRequests, "ingest_overload", "%v", err)
	case errors.Is(err, newslink.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "shutting_down", "%v", err)
	case errors.Is(err, newslink.ErrReadOnly):
		// A cluster router serves a fixed snapshot: writes go nowhere.
		writeError(w, http.StatusForbidden, "read_only", "%v", err)
	case errors.Is(err, newslink.ErrShardUnavailable):
		writeError(w, http.StatusServiceUnavailable, "shard_unavailable", "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
	}
}

// retryAfterHint renders the engine's queue-drain estimate as a
// Retry-After value, falling back to "1" while no estimate exists.
func retryAfterHint(e *newslink.Engine) string {
	if secs := e.IngestRetryAfter(); secs > 0 {
		return strconv.Itoa(secs)
	}
	return "1"
}

// intParam parses an optional integer query parameter (def when absent).
func intParam(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q must be an integer, got %q", name, raw)
	}
	return v, nil
}

func int64Param(r *http.Request, name string) (int64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q must be an integer timestamp, got %q", name, raw)
	}
	return v, nil
}

// maxEntityFilters caps the repeatable entity= parameter, like the other
// caps on unauthenticated request sizing.
const maxEntityFilters = 16

// filterParams parses the shared document-filter query parameters:
// after=/before= (inclusive Document.Time bounds) and entity= (repeatable
// must-match entity labels).
func filterParams(r *http.Request) (after, before int64, entities []string, err error) {
	if after, err = int64Param(r, "after"); err != nil {
		return 0, 0, nil, err
	}
	if before, err = int64Param(r, "before"); err != nil {
		return 0, 0, nil, err
	}
	entities = r.URL.Query()["entity"]
	if len(entities) > maxEntityFilters {
		return 0, 0, nil, fmt.Errorf("at most %d entity filters per request, got %d", maxEntityFilters, len(entities))
	}
	for _, e := range entities {
		if e == "" {
			return 0, 0, nil, fmt.Errorf("parameter \"entity\" must not be empty")
		}
	}
	return after, before, entities, nil
}

// searchParams parses one search request — q, k, pool, beta and the shared
// document filters — into the engine's Query.
func searchParams(r *http.Request) (newslink.Query, error) {
	q := newslink.Query{Text: r.URL.Query().Get("q")}
	if q.Text == "" {
		return q, errors.New("missing query parameter q")
	}
	if err := rankParams(r, &q); err != nil {
		return q, err
	}
	if raw := r.URL.Query().Get("beta"); raw != "" {
		beta, err := strconv.ParseFloat(raw, 64)
		if err != nil || beta < 0 || beta > 1 {
			return q, fmt.Errorf("parameter \"beta\" must be a number in [0,1], got %q", raw)
		}
		q.Beta = &beta
	}
	return q, nil
}

// rankParams parses what search and related requests share — k, pool and
// the document filters — into q.
func rankParams(r *http.Request, q *newslink.Query) (err error) {
	if q.K, err = intParam(r, "k", 10); err != nil {
		return err
	}
	if q.K <= 0 || q.K > 1000 {
		return fmt.Errorf("k must be in [1,1000], got %d", q.K)
	}
	if q.PoolDepth, err = intParam(r, "pool", 0); err != nil || q.PoolDepth < 0 || q.PoolDepth > maxPoolDepth {
		return fmt.Errorf("parameter \"pool\" must be an integer in [0,%d]", maxPoolDepth)
	}
	q.After, q.Before, q.Entities, err = filterParams(r)
	return err
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	req, err := searchParams(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	ctx, tr := maybeTrace(ctx, r)
	resp, err := s.engine.SearchContextFull(ctx, req)
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	results := resp.Results
	if results == nil {
		results = []newslink.Result{}
	}
	s.logTrace(r, tr)
	writeJSON(w, http.StatusOK, SearchResponse{
		Query:          req.Text,
		K:              req.K,
		Results:        results,
		Degraded:       resp.Degraded,
		DegradedReason: resp.DegradedReason,
		ShardsTotal:    resp.ShardsTotal,
		ShardsOK:       resp.ShardsOK,
		Trace:          tr.Spans(),
	})
}

// handleRelated serves related-news search: the corpus ranked against the
// stored subgraph embedding of the path document, optionally filtered by
// the shared after/before/entity parameters. Unknown or tombstoned ids
// answer 404; a document that embedded to nothing answers 200 with empty
// results (it has no graph neighbourhood).
func (s *Server) handleRelated(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 {
		badRequest(w, "path parameter id must be a non-negative integer")
		return
	}
	var q newslink.Query
	if err := rankParams(r, &q); err != nil {
		badRequest(w, "%v", err)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	ctx, tr := maybeTrace(ctx, r)
	resp, err := s.engine.RelatedContextFull(ctx, newslink.RelatedQuery{
		DocID: id, K: q.K, PoolDepth: q.PoolDepth,
		After: q.After, Before: q.Before, Entities: q.Entities,
	})
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	results := resp.Results
	if results == nil {
		results = []newslink.Result{}
	}
	s.logTrace(r, tr)
	writeJSON(w, http.StatusOK, RelatedResponse{DocID: id, K: q.K, Results: results,
		Degraded: resp.Degraded, DegradedReason: resp.DegradedReason,
		ShardsTotal: resp.ShardsTotal, ShardsOK: resp.ShardsOK, Trace: tr.Spans()})
}

// maybeTrace attaches a per-request trace to ctx when the request asked for
// one with trace=1. A nil *obs.Trace is a valid no-op, so callers use the
// result unconditionally.
func maybeTrace(ctx context.Context, r *http.Request) (context.Context, *obs.Trace) {
	if r.URL.Query().Get("trace") != "1" {
		return ctx, nil
	}
	return obs.WithTrace(ctx)
}

// maxExplainPaths caps the paths= parameter of an explain request.
const maxExplainPaths = 1000

// explainParams parses one explain request — q, id, paths and the shared
// document filters.
func explainParams(r *http.Request) (q newslink.Query, id, paths int, err error) {
	q.Text = r.URL.Query().Get("q")
	if q.Text == "" {
		return q, 0, 0, errors.New("missing query parameter q")
	}
	if id, err = intParam(r, "id", -1); err != nil {
		return q, 0, 0, err
	}
	if id < 0 {
		return q, 0, 0, errors.New("missing or negative parameter id")
	}
	if paths, err = intParam(r, "paths", 5); err != nil {
		return q, 0, 0, err
	}
	if paths < 0 || paths > maxExplainPaths {
		return q, 0, 0, fmt.Errorf("parameter \"paths\" must be in [0,%d], got %d", maxExplainPaths, paths)
	}
	q.After, q.Before, q.Entities, err = filterParams(r)
	return q, id, paths, err
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q, id, paths, err := explainParams(r)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	ctx, tr := maybeTrace(ctx, r)
	exp, err := s.engine.ExplainQueryContext(ctx, q, id, paths)
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	s.logTrace(r, tr)
	writeJSON(w, http.StatusOK, ExplainResponse{Query: q.Text, DocID: id, Explanation: exp, Trace: tr.Spans()})
}

// handleDOT returns a Graphviz rendering of the query and document
// embeddings (Content-Type text/vnd.graphviz), the Figure 1 visual.
func (s *Server) handleDOT(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		badRequest(w, "missing query parameter q")
		return
	}
	id, err := intParam(r, "id", -1)
	if err != nil || id < 0 {
		badRequest(w, "missing or invalid parameter id")
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	dot, err := s.engine.ExplainDOTContext(ctx, q, id, "newslink")
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	if dot == "" {
		writeError(w, http.StatusNotFound, "no_embeddings", "no subgraph embeddings for this pair")
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write([]byte(dot)); err != nil {
		return
	}
}

// maxDocBody bounds the POST /docs request body; like the query-parameter
// caps it keeps one unauthenticated request from sizing server allocations.
const maxDocBody = 1 << 20

// handleDocUpsert adds or replaces one document (engine Update semantics:
// a new ID is added, an existing one is atomically replaced). The engine
// embeds the text before indexing, so this is the expensive write path;
// it carries admission weight like a query.
func (s *Server) handleDocUpsert(w http.ResponseWriter, r *http.Request) {
	var p DocPayload
	dec := json.NewDecoder(io.LimitReader(r.Body, maxDocBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		badRequest(w, "invalid JSON body: %v", err)
		return
	}
	if p.ID == nil || *p.ID < 0 {
		badRequest(w, "missing or negative field id")
		return
	}
	if p.Text == "" {
		badRequest(w, "missing field text")
		return
	}
	if err := s.engine.Update(newslink.Document{ID: *p.ID, Title: p.Title, Text: p.Text, Time: p.Time}); err != nil {
		s.writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DocResponse{ID: *p.ID, Docs: s.engine.NumDocs(), Op: "upsert"})
}

// handleDocIngest is the streaming write path: the document is durably
// logged (when the engine runs with a WAL) and enqueued for asynchronous
// indexing, and the request is acknowledged with 202 before the document
// is searchable. A full ingest queue sheds the request with 429 and a
// Retry-After hint — the bounded queue is the back-pressure mechanism
// that keeps a sustained firehose from growing an unbounded backlog.
// Engines without WithIngestQueue fall back to a synchronous upsert, so
// the route works (with synchronous latency) at either setting.
func (s *Server) handleDocIngest(w http.ResponseWriter, r *http.Request) {
	var p DocPayload
	dec := json.NewDecoder(io.LimitReader(r.Body, maxDocBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		badRequest(w, "invalid JSON body: %v", err)
		return
	}
	if p.ID == nil || *p.ID < 0 {
		badRequest(w, "missing or negative field id")
		return
	}
	if p.Text == "" {
		badRequest(w, "missing field text")
		return
	}
	if err := s.engine.Ingest(newslink.Document{ID: *p.ID, Title: p.Title, Text: p.Text, Time: p.Time}); err != nil {
		s.writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, DocResponse{ID: *p.ID, Docs: s.engine.NumDocs(), Op: "ingest"})
}

// handleDocDelete tombstones one document by ID; it disappears from
// search results immediately and its index space is reclaimed by the next
// segment merge. Unknown (or already deleted) IDs answer 404.
func (s *Server) handleDocDelete(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 {
		badRequest(w, "path parameter id must be a non-negative integer")
		return
	}
	if err := s.engine.Delete(id); err != nil {
		s.writeEngineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DocResponse{ID: id, Docs: s.engine.NumDocs(), Op: "delete"})
}

// handleHealth is the liveness probe: 200 as long as the process can
// serve HTTP at all. It stays 200 during a drain — restarting a process
// because it is shutting down would be counterproductive.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the readiness probe: 200 while the server accepts new
// work, 503 once a drain began. Load balancers route on this one.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleMetrics serves the metric registry (engine + HTTP layer) as one
// JSON object keyed by metric identity; histograms include count, sum and
// p50/p95/p99 estimates.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := s.registry.WriteJSON(w); err != nil {
		return
	}
}

// handleMetricsProm serves the same registry in the Prometheus text
// exposition format, for scraping.
func (s *Server) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if err := s.registry.WritePrometheus(w); err != nil {
		return
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	g := s.engine.Graph()
	writeJSON(w, http.StatusOK, StatsResponse{
		Docs:        s.engine.NumDocs(),
		Segments:    s.engine.NumSegments(),
		DeletedDocs: s.engine.NumDeletedDocs(),
		KGNodes:     g.NumNodes(),
		KGEdges:     g.NumEdges(),
		KGLabels:    labelCount(g),
	})
}

func labelCount(g *kg.Graph) int { return g.Index().Size() }
