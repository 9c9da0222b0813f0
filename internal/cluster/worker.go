package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"newslink"
	"newslink/internal/faults"
	"newslink/internal/kg"
	"newslink/internal/obs"
	"newslink/internal/search"
	"newslink/internal/server"
)

// Worker serves one shard of a partitioned snapshot: it holds the postings
// of the slice of segments a router assigned to it and answers the search
// RPC over that slice. A worker is stateless across assignments — the plan
// ID names the state, and a new assignment atomically replaces the slice.
type Worker struct {
	id       string
	dir      string
	g        *kg.Graph
	log      *slog.Logger
	client   *http.Client
	registry *obs.Registry // empty until the first assignment
	// The worker's two fault points, built once rather than per RPC.
	gatePoint, writePoint faults.Point

	mu    sync.Mutex
	plan  string
	base  int
	shard *newslink.Shard
}

// NewWorker returns a worker with identity id, storing artifacts under
// dir. The knowledge graph g serves one purpose on a worker: an
// assignment whose snapshot was built on another graph (by fingerprint)
// is refused.
func NewWorker(id, dir string, g *kg.Graph, log *slog.Logger) *Worker {
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Worker{
		id:       id,
		dir:      dir,
		g:        g,
		log:      log,
		client:   &http.Client{Timeout: 2 * time.Minute},
		registry: obs.NewRegistry(),

		gatePoint:  faults.ClusterShard(id),
		writePoint: faults.ClusterShardWrite(id),
	}
}

// ID returns the worker's identity (the fault-point key of its handlers).
func (w *Worker) ID() string { return w.id }

// Handler returns the worker's HTTP surface: the shard RPC under
// /v1/shard/, plus health, readiness and metrics probes.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shard/assign", w.handleAssign)
	mux.HandleFunc("POST /v1/shard/search", w.handleSearch)
	mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		server.WriteJSON(rw, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/readyz", w.handleReady)
	mux.HandleFunc("GET /v1/metrics", w.handleMetrics)
	return mux
}

// gate fires the worker's fault point at the top of every RPC handler.
// An injected error answers 500 (a failing shard); an injected delay
// simply sleeps inside Fire, modelling a slow one.
func (w *Worker) gate(rw http.ResponseWriter) bool {
	if err := faults.Fire(w.gatePoint); err != nil {
		server.WriteError(rw, http.StatusInternalServerError, "fault_injected", "%v", err)
		return false
	}
	return true
}

// writeRPC encodes one RPC response into a pooled buffer and writes it,
// routing the bytes through the worker's response-write fault point first.
// A mutation rule that truncates the payload models a worker crashing
// mid-response: the full Content-Length is promised, a prefix is written,
// and the connection is aborted — the router sees a transport error, never
// a silently short document. The length is always announced, so the router
// sizes its read once.
func (w *Worker) writeRPC(rw http.ResponseWriter, v any) {
	buf := getBuf(0)
	defer putBuf(buf)
	data, err := encodeRPC(*buf, v)
	if err != nil {
		server.WriteError(rw, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	*buf = data
	mutated, ferr := faults.FireData(w.writePoint, data)
	if ferr != nil {
		server.WriteError(rw, http.StatusInternalServerError, "fault_injected", "%v", ferr)
		return
	}
	rw.Header()["Content-Type"] = contentType(data)
	rw.Header().Set("Content-Length", strconv.Itoa(max(len(data), len(mutated))))
	rw.WriteHeader(http.StatusOK)
	_, _ = rw.Write(mutated)
	if len(mutated) < len(data) {
		panic(http.ErrAbortHandler)
	}
}

// snapshotState returns the worker's current shard, plan and base.
func (w *Worker) snapshotState() (*newslink.Shard, string, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.shard, w.plan, w.base
}

// requirePlan answers plan-mismatch (409) or unassigned (503) states;
// the router ejects the replica for its probe loop to re-assign, and
// tries the request on the slot's next live replica.
func (w *Worker) requirePlan(rw http.ResponseWriter, plan string) (*newslink.Shard, bool) {
	sh, cur, _ := w.snapshotState()
	if sh == nil {
		server.WriteError(rw, http.StatusServiceUnavailable, "unassigned", "worker %s has no assignment", w.id)
		return nil, false
	}
	if cur != plan {
		server.WriteError(rw, http.StatusConflict, "plan_mismatch", "worker %s serves plan %s, not %s", w.id, cur, plan)
		return nil, false
	}
	return sh, true
}

func (w *Worker) handleReady(rw http.ResponseWriter, _ *http.Request) {
	if sh, _, _ := w.snapshotState(); sh == nil {
		server.WriteJSON(rw, http.StatusServiceUnavailable, map[string]string{"status": "unassigned"})
		return
	}
	server.WriteJSON(rw, http.StatusOK, map[string]string{"status": "ready"})
}

// Metrics returns the worker's registry: empty until the first
// assignment, then the shape of the slice it serves.
func (w *Worker) Metrics() *obs.Registry { return w.registry }

func (w *Worker) handleMetrics(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusOK)
	_ = w.Metrics().WriteJSON(rw)
}

func (w *Worker) handleAssign(rw http.ResponseWriter, r *http.Request) {
	if !w.gate(rw) {
		return
	}
	var req AssignRequest
	if err := decodeBody(r, &req); err != nil {
		server.WriteError(rw, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	w.mu.Lock()
	if w.shard != nil && w.plan == req.Plan && w.base == req.Base {
		// Idempotent re-assignment of what the worker serves: acknowledge
		// without reloading anything.
		w.mu.Unlock()
		w.writeRPC(rw, &AssignResponse{Plan: req.Plan})
		return
	}
	w.mu.Unlock()
	// The loader verifies every artifact once and hands the missing or
	// damaged ones to fetch; segments restore concurrently.
	var fetched atomic.Int64
	fetch := func(name string) error {
		if err := w.fetchArtifact(r.Context(), req.FetchFrom, name); err != nil {
			return err
		}
		fetched.Add(1)
		return nil
	}
	shard, err := newslink.LoadSegments(w.dir, w.g, req.Graph, req.Segments, req.Checksums, fetch)
	if err != nil {
		server.WriteError(rw, http.StatusInternalServerError, "load_failed", "%v", err)
		return
	}
	// The replaced shard is closed at once: a search still traversing it
	// reads only its heap state (postings, tombstones, time columns), never
	// the documents descriptors Close releases (DESIGN.md §11).
	w.mu.Lock()
	old := w.shard
	w.shard = shard
	w.plan = req.Plan
	w.base = req.Base
	w.mu.Unlock()
	if old != nil {
		if err := old.Close(); err != nil {
			w.log.Warn("closing the replaced assignment", "worker", w.id, "err", err)
		}
	}
	w.registry.Gauge("newslink_segments", "Segments of the assignment the worker serves.").Set(int64(len(req.Segments)))
	w.log.Info("assignment installed", "worker", w.id, "plan", req.Plan,
		"base", req.Base, "segments", len(req.Segments), "fetched", fetched.Load())
	w.writeRPC(rw, &AssignResponse{Plan: req.Plan, Fetched: int(fetched.Load())})
}

// fetchArtifact downloads one content-addressed artifact from the router's
// blob endpoint at peer and installs it in the worker's directory through
// a temporary file and a rename. The loader verifies what it installed.
func (w *Worker) fetchArtifact(ctx context.Context, peer, name string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/shard/blob/"+name, nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return fmt.Errorf("fetching %s: %w", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetching %s: peer answered %d", name, resp.StatusCode)
	}
	tmp, err := os.CreateTemp(w.dir, ".fetch-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := io.Copy(tmp, resp.Body); err != nil {
		tmp.Close()
		return fmt.Errorf("fetching %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(w.dir, name))
}

func (w *Worker) handleSearch(rw http.ResponseWriter, r *http.Request) {
	if !w.gate(rw) {
		return
	}
	var req SearchRequest
	if err := decodeBody(r, &req); err != nil {
		server.WriteError(rw, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	shard, ok := w.requirePlan(rw, req.Plan)
	if !ok {
		return
	}
	// Filter clauses mask documents from the local traversal through the
	// same live seam as tombstones; statistics and scorer parameters stay
	// the router's unfiltered global values, so the filtered shard ranking
	// composes into exactly a single process's filtered ranking. Both legs
	// run here, on the handler goroutine (a spawn and a wake-up per leg
	// cost more than the overlap returns, DESIGN.md §14).
	resp := SearchResponse{Plan: req.Plan}
	text, node, err := shard.Sources(req.After, req.Before, req.Entities)
	if err == nil && len(req.Text) > 0 {
		resp.Text, _, err = search.TopKBlockMaxOrderedStats(r.Context(), text, req.TextScorer.scorer(), req.Text, req.K)
	}
	if err == nil && len(req.Node) > 0 {
		resp.Node, _, err = search.TopKBlockMaxOrderedStats(r.Context(), node, req.NodeScorer.scorer(), req.Node, req.K)
	}
	if err != nil {
		server.WriteError(rw, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	w.writeRPC(rw, &resp)
}
