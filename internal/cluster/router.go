package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"newslink"
	"newslink/internal/index"
	"newslink/internal/kg"
	"newslink/internal/obs"
	"newslink/internal/search"
	"newslink/internal/server"
)

// Config tunes the router's robustness policy. Zero values select the
// documented defaults.
type Config struct {
	// Endpoints lists, per shard slot, the base URLs of the worker
	// replicas serving that slot. Required, one non-empty group per slot.
	Endpoints [][]string
	// SelfURL is the router's own externally reachable base URL; workers
	// fetch missing segment artifacts from it. Empty disables peer
	// fetching (workers must already hold their artifacts).
	SelfURL string
	// MaxAttempts bounds the tries of one idempotent RPC across a slot's
	// replicas (default 3).
	MaxAttempts int
	// RetryBase is the first retry's backoff; later retries double it,
	// jittered (default 10ms).
	RetryBase time.Duration
	// Hedge enables tail-latency hedging: a duplicate request to a second
	// replica once the first has been quiet past the slot's p99.
	Hedge bool
	// HedgeMin floors the hedge delay while latency history is thin
	// (default 20ms).
	HedgeMin time.Duration
	// ProbeInterval paces the health probe loop (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round-trip, including a re-assignment
	// with blob fetches (default 15s).
	ProbeTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that ejects an
	// endpoint (default 3).
	BreakerThreshold int
	// RequestTimeout is the total budget of one client search/explain
	// request; per-shard attempt deadlines are carved out of what
	// remains of it (default 10s).
	RequestTimeout time.Duration
	// Logger receives structured ejection/re-admission and access events.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 20 * time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 15 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	return c
}

// slot is one shard of the plan at runtime: its replicas, round-robin
// cursor, latency history and the directories of its segment indexes.
type slot struct {
	idx   int
	stage string // the slot's span name, obs.StageShard(idx)
	plan  ShardPlan
	eps   []*endpoint
	next  atomic.Int64
	lat   *obs.Histogram
	reqs  map[string]*obs.Counter // outcome -> request counter

	// text and node are the slot's segment indexes in plan order, opened
	// file-backed: term directories and document lengths are resident,
	// postings stay in the files and the router never reads one.
	text, node []*index.Index
}

// open checksum-verifies and opens the text and node index of every
// segment of the slot. Like the loaders, it answers a missing, torn or
// flipped artifact, or one indexing another number of documents than the
// segment's documents artifact holds, with ErrSnapshotCorrupt; what it
// opened before failing stays on the slot for the caller to close.
func (sl *slot) open(dir string, checksums map[string]string) error {
	for i, sm := range sl.plan.Segments {
		for _, leg := range []struct {
			suffix string
			into   *[]*index.Index
		}{{".text.idx", &sl.text}, {".node.idx", &sl.node}} {
			name := "seg-" + sm.ID + leg.suffix
			if err := newslink.VerifyArtifact(dir, name, checksums); err != nil {
				return err
			}
			idx, err := index.OpenIndex(filepath.Join(dir, name))
			if err != nil {
				return fmt.Errorf("%w: %s: %v", newslink.ErrSnapshotCorrupt, name, err)
			}
			*leg.into = append(*leg.into, idx)
			if idx.NumDocs() != sl.plan.SegmentDocs[i] {
				return fmt.Errorf("%w: %s indexes %d documents, the segment holds %d",
					newslink.ErrSnapshotCorrupt, name, idx.NumDocs(), sl.plan.SegmentDocs[i])
			}
		}
	}
	return nil
}

// corpusStats is what a pass needs to know about its target corpus before
// scattering: the merged text and node directories of the target's
// segments in plan order — index.NewMulti over them, the very object a
// single process over those segments scores against, so N, avgdl, DF,
// max-TF and hence the term order are its values by construction — and
// the live document count for the pool clamp.
type corpusStats struct {
	text, node *index.Multi
	live       int
}

func statsOf(target []*slot) corpusStats {
	var text, node []index.Source
	live := 0
	for _, sl := range target {
		for i := range sl.text {
			text, node = append(text, sl.text[i]), append(node, sl.node[i])
		}
		live += sl.plan.Live
	}
	return corpusStats{text: index.NewMulti(text...), node: index.NewMulti(node...), live: live}
}

// live returns the slot's currently admitted replicas, read-only: with
// every replica admitted it is the slot's own list, not a copy.
func (sl *slot) live() []*endpoint {
	for i, ep := range sl.eps {
		if ep.healthy.Load() {
			continue
		}
		out := append(make([]*endpoint, 0, len(sl.eps)-1), sl.eps[:i]...)
		for _, ep := range sl.eps[i+1:] {
			if ep.healthy.Load() {
				out = append(out, ep)
			}
		}
		return out
	}
	return sl.eps
}

// latencyBounds bucket per-shard RPC latencies (seconds).
var latencyBounds = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5}

// Router serves the public search/explain API by scatter-gather over
// shard workers. It holds the knowledge graph (for query analysis — the
// same analysis a single-process engine runs) and the snapshot directory
// (to seed workers over the blob endpoint, and to read term statistics
// and document IDs from): it opens every segment index's directory, never
// a posting, and reads every segment's document ID column, never a text.
type Router struct {
	plan     *Plan
	dir      string
	cfg      Config
	log      *slog.Logger
	client   *http.Client
	analyzer *newslink.Engine
	registry *obs.Registry
	slots    []*slot

	mRetries *obs.Counter
	mHedges  *obs.Counter
	mPartial *obs.Counter

	// full is the statistics view of the healthy target (every slot),
	// immutable like the snapshot; a degraded pass builds its subset's.
	full corpusStats
}

// NewRouter builds a router over the version-6 snapshot in dir (an older
// one is ErrSnapshotVersion: Load and Save it with this build first): it
// reads the manifest and the ID column of every segment's documents
// artifact, partitions the segment set into len(cfg.Endpoints) slots
// (fewer when the snapshot has fewer segments; surplus endpoint groups
// fold into the existing slots as extra replicas), checksum-verifies and
// opens the index artifacts of every segment (dir must hold every
// segment's documents and index artifacts — every Save output does; a
// damaged one is ErrSnapshotCorrupt), and prepares — but does not start —
// the serving state. The router holds no document. Call Start to assign
// workers and begin health probing, and serve Handler over HTTP at
// cfg.SelfURL before Start so workers can fetch artifacts. Close the
// router when done.
func NewRouter(dir string, g *kg.Graph, cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Endpoints) == 0 {
		return nil, fmt.Errorf("cluster: no shard endpoints configured")
	}
	for i, group := range cfg.Endpoints {
		if len(group) == 0 {
			return nil, fmt.Errorf("cluster: endpoint group %d is empty", i)
		}
	}
	m, err := newslink.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	plan, err := BuildPlan(dir, m, len(cfg.Endpoints))
	if err != nil {
		return nil, err
	}
	if got, want := plan.Graph, newslink.FingerprintGraph(g); got != want {
		return nil, fmt.Errorf("cluster: graph fingerprint %+v does not match snapshot %+v", want, got)
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	analyzer := newslink.New(g, plan.Config)
	rt := &Router{
		plan:     plan,
		dir:      dir,
		cfg:      cfg,
		log:      log,
		client:   &http.Client{},
		analyzer: analyzer,
		registry: analyzer.Metrics(),
	}
	rt.mRetries = rt.registry.Counter("newslink_cluster_retries_total",
		"Shard RPC retries after a failed attempt.")
	rt.mHedges = rt.registry.Counter("newslink_cluster_hedges_total",
		"Hedged (duplicate) shard requests fired against a second replica.")
	rt.mPartial = rt.registry.Counter("newslink_cluster_partial_results_total",
		"Search responses served degraded from a subset of shards.")
	// Surplus endpoint groups (more groups than the snapshot has
	// segments, hence slots) become extra replicas, round-robin.
	groups := make([][]string, len(plan.Shards))
	for i, group := range cfg.Endpoints {
		groups[i%len(plan.Shards)] = append(groups[i%len(plan.Shards)], group...)
	}
	for i, sp := range plan.Shards {
		shard := strconv.Itoa(i)
		sl := &slot{
			idx:   i,
			stage: obs.StageShard(i),
			plan:  sp,
			lat: rt.registry.Histogram("newslink_cluster_shard_seconds",
				"Per-shard RPC latency.", latencyBounds, obs.L("shard", shard)),
			reqs: make(map[string]*obs.Counter, 3),
		}
		for _, outcome := range []string{"ok", "error", "timeout"} {
			sl.reqs[outcome] = rt.registry.Counter("newslink_cluster_shard_requests_total",
				"Shard RPC attempts by outcome.", obs.L("shard", shard), obs.L("outcome", outcome))
		}
		for _, url := range groups[i] {
			sl.eps = append(sl.eps, &endpoint{url: url})
		}
		rt.slots = append(rt.slots, sl)
		if err := sl.open(dir, plan.Checksums); err != nil {
			rt.Close()
			return nil, err
		}
	}
	rt.full = statsOf(rt.slots)
	return rt, nil
}

// Plan returns the router's partitioning (for tests and status surfaces).
func (rt *Router) Plan() *Plan { return rt.plan }

// Start performs the initial assignment of every replica, all of them
// concurrently, and launches the health probe loop once every assignment
// has finished. Replicas that cannot be assigned now stay ejected; the
// probe loop keeps trying, so a late-starting worker is admitted without
// intervention. Each replica is admitted the moment its own assignment is
// acknowledged, so one slow worker delays nobody else's. Start returns an
// error only when no replica of any slot could be assigned and the router
// would be permanently useless until workers appear.
func (rt *Router) Start(ctx context.Context) error {
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for _, sl := range rt.slots {
		for _, ep := range sl.eps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				actx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
				defer cancel()
				if err := rt.assignEndpoint(actx, sl, ep); err != nil {
					rt.log.Warn("initial assignment failed", "slot", sl.idx, "endpoint", ep.url, "err", err)
					return
				}
				ep.admit()
				admitted.Add(1)
			}()
		}
	}
	wg.Wait()
	go rt.probeLoop(ctx)
	if admitted.Load() == 0 {
		return fmt.Errorf("cluster: no worker accepted an assignment (probing continues)")
	}
	rt.log.Info("cluster router started", "plan", rt.plan.ID,
		"slots", len(rt.slots), "replicas_admitted", admitted.Load())
	return nil
}

// Close releases idle transport connections and the index files.
func (rt *Router) Close() {
	rt.client.CloseIdleConnections()
	for _, sl := range rt.slots {
		for _, idx := range slices.Concat(sl.text, sl.node) {
			_ = idx.Close()
		}
	}
}

// Handler returns the router's public HTTP surface: the same /v1/search
// and /v1/explain contract the single-process server exposes (plus the
// unversioned aliases), the blob endpoint workers fetch artifacts from,
// and health/metrics.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, prefix := range []string{"/v1", ""} {
		mux.HandleFunc("GET "+prefix+"/search", rt.handleSearch)
		mux.HandleFunc("GET "+prefix+"/explain", rt.handleExplain)
		mux.HandleFunc("GET "+prefix+"/healthz", rt.handleHealth)
		mux.HandleFunc("GET "+prefix+"/readyz", rt.handleReady)
		mux.HandleFunc("GET "+prefix+"/stats", rt.handleStats)
		mux.HandleFunc("GET "+prefix+"/metrics", rt.handleMetrics)
	}
	mux.HandleFunc("GET /v1/shard/blob/{name}", blobHandler(rt.dir))
	return mux
}

func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady answers ready while at least one shard can serve; a
// router with zero live shards cannot produce any results.
func (rt *Router) handleReady(w http.ResponseWriter, _ *http.Request) {
	for _, sl := range rt.slots {
		if len(sl.live()) > 0 {
			server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
	}
	server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no_live_shards"})
}

// ClusterStatus is the router's /v1/stats reply: the plan and per-slot
// replica health, the operational view of ejection and re-admission.
type ClusterStatus struct {
	Plan   string        `json:"plan"`
	Shards []ShardStatus `json:"shards"`
}

// ShardStatus is one slot's health summary.
type ShardStatus struct {
	Slot      int              `json:"slot"`
	Base      int              `json:"base"`
	Docs      int              `json:"docs"`
	Live      int              `json:"live"`
	Endpoints []EndpointStatus `json:"endpoints"`
}

// EndpointStatus is one replica's breaker state.
type EndpointStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

func (rt *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := ClusterStatus{Plan: rt.plan.ID}
	for _, sl := range rt.slots {
		ss := ShardStatus{Slot: sl.idx, Base: sl.plan.Base, Docs: sl.plan.Docs, Live: sl.plan.Live}
		for _, ep := range sl.eps {
			ss.Endpoints = append(ss.Endpoints, EndpointStatus{URL: ep.url, Healthy: ep.healthy.Load()})
		}
		st.Shards = append(st.Shards, ss)
	}
	server.WriteJSON(w, http.StatusOK, st)
}

// Metrics returns the router's registry: the analyzer engine's metrics
// plus the cluster counters and per-shard latency histograms.
func (rt *Router) Metrics() *obs.Registry { return rt.registry }

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = rt.registry.WriteJSON(w)
}

// httpError carries a status/code pair from the scatter pipeline to the
// handler's error envelope.
type httpError struct {
	Status  int
	Code    string
	Message string
}

func (e *httpError) Error() string { return e.Message }

func httpErrorf(status int, code, format string, args ...any) *httpError {
	return &httpError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// writeRouterError maps pipeline errors onto the uniform envelope.
func (rt *Router) writeRouterError(w http.ResponseWriter, err error) {
	var he *httpError
	switch {
	case errors.As(err, &he):
		server.WriteError(w, he.Status, he.Code, "%s", he.Message)
	case errors.Is(err, context.Canceled):
		server.WriteError(w, server.StatusClientClosedRequest, "client_closed_request", "request cancelled")
	case errors.Is(err, context.DeadlineExceeded):
		server.WriteError(w, http.StatusGatewayTimeout, "deadline_exceeded", "query deadline exceeded")
	default:
		server.WriteError(w, http.StatusInternalServerError, "internal", "%v", err)
	}
}

func (rt *Router) handleSearch(w http.ResponseWriter, r *http.Request) {
	q, err := server.SearchParams(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	var tr *obs.Trace
	if r.URL.Query().Get("trace") == "1" {
		ctx, tr = obs.WithTrace(ctx)
	}
	resp, err := rt.search(ctx, q.Text, q.K, q.PoolDepth, q.Beta, rt.wireFilterOf(q.After, q.Before, q.Entities))
	if err != nil {
		rt.writeRouterError(w, err)
		return
	}
	resp.Trace = tr.Spans()
	server.WriteJSON(w, http.StatusOK, resp)
}

// wireFilter is one request's document-filter clauses in the shape the
// shard RPC carries: time bounds verbatim, entity labels already resolved
// to node-term sets against the router's graph. Resolving once here means
// every shard filters by identical terms and the composed facet equals a
// single process's over the merged corpus.
type wireFilter struct {
	after, before int64
	entities      [][]string
}

func (f wireFilter) empty() bool {
	return f.after == 0 && f.before == 0 && len(f.entities) == 0
}

// wireFilterOf resolves a request's parsed filter clauses (the
// single-process server's grammar) against the router's knowledge graph. A
// label that resolves to nothing stays as an empty term set: it must reach
// the workers so the facet matches no document, exactly as on a single
// process.
func (rt *Router) wireFilterOf(after, before int64, labels []string) wireFilter {
	f := wireFilter{after: after, before: before}
	if len(labels) > 0 {
		f.entities = rt.analyzer.EntityTerms(labels)
	}
	return f
}

// search runs the scatter-gather pipeline with graceful degradation:
// shards that fail mid-request are dropped and the pipeline re-runs
// over the survivors (global statistics re-read over their segments, so
// the ranking over the remaining corpus stays exact). Only zero live
// shards fail the request.
func (rt *Router) search(ctx context.Context, q string, k, pool int, betaOverride *float64, flt wireFilter) (*server.SearchResponse, error) {
	beta := rt.plan.Config.Beta
	if betaOverride != nil {
		beta = *betaOverride
	}
	if pool <= 0 {
		pool = rt.plan.Config.PoolDepth
	}
	if pool == 0 {
		pool = 100
	}
	if pool < k {
		pool = k
	}
	terms, nodeWeights, err := rt.analyzer.AnalyzeQuery(ctx, q)
	if err != nil {
		return nil, err
	}
	textQuery := search.NewQuery(terms)
	nodeQuery := search.Query(nodeWeights)
	runBOW := beta < 1
	runBON := beta > 0 && nodeWeights != nil
	// failed tracks slots lost during *this* request; each pipeline pass
	// either completes or adds at least one slot to it, bounding the
	// degradation loop by the slot count.
	failed := make(map[int]bool)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		target := rt.liveSlots(failed)
		if len(target) == 0 {
			return nil, httpErrorf(http.StatusServiceUnavailable, "shard_unavailable",
				"no live shard can serve the request")
		}
		resp, lost := rt.searchOnce(ctx, target, q, k, pool, beta, runBOW, runBON, terms, textQuery, nodeQuery, flt)
		if len(lost) > 0 {
			for _, idx := range lost {
				failed[idx] = true
			}
			rt.log.Warn("shards lost mid-request; re-running over the survivors", "lost", lost)
			continue
		}
		if len(target) < len(rt.slots) {
			resp.Degraded = true
			resp.DegradedReason = "shard_unavailable"
			rt.mPartial.Inc()
		}
		resp.ShardsTotal = len(rt.slots)
		resp.ShardsOK = len(target)
		return resp, nil
	}
}

// liveSlots returns the slots that still have an admitted replica and
// were not lost earlier in this request.
func (rt *Router) liveSlots(failed map[int]bool) []*slot {
	out := make([]*slot, 0, len(rt.slots))
	for _, sl := range rt.slots {
		if !failed[sl.idx] && len(sl.live()) > 0 {
			out = append(out, sl)
		}
	}
	return out
}

// searchOnce runs one pipeline pass over a fixed target set. It returns
// the response, or the slots lost during the pass (the caller then
// shrinks the target and re-runs). Filter clauses affect only the scatter:
// statistics stay those of the unfiltered target corpus (matching a single
// process's filtered-statistics semantics), so scorers, term order and
// pool clamp are filter-independent.
func (rt *Router) searchOnce(ctx context.Context, target []*slot, q string, k, pool int, beta float64, runBOW, runBON bool, terms []string, textQuery, nodeQuery search.Query, flt wireFilter) (*server.SearchResponse, []int) {
	tr := obs.FromContext(ctx)

	// Statistics: read off the target's merged directories, exactly as a
	// single process over those segments reads them off its own.
	stats := rt.full
	if len(target) < len(rt.slots) {
		stats = statsOf(target)
	}
	// The candidate pool never usefully exceeds the live corpus in
	// target, mirroring the engine's own clamp.
	pool = min(pool, stats.live)
	textScorer := search.NewBM25(stats.text)
	nodeScorer := search.NodeBM25(stats.node.NumDocs(), stats.node.AvgDocLen())

	// Canonical global term order — the engine's own OrderTerms — so every
	// shard accumulates in the same order.
	var orderedText, orderedNode []search.OrderedTerm
	if runBOW {
		orderedText, _ = search.OrderTerms(stats.text, textScorer, textQuery)
	}
	if runBON {
		orderedNode, _ = search.OrderTerms(stats.node, nodeScorer, nodeQuery)
	}
	if pool == 0 || len(orderedText)+len(orderedNode) == 0 {
		// Nothing can match (empty live corpus or no query term posted
		// anywhere); skip the scatter entirely.
		return &server.SearchResponse{Query: q, K: k, Results: []newslink.Result{}}, nil
	}

	// Scatter the search.
	sp := tr.Start(obs.StageScatter)
	perSlot, lost := rt.scatterSearch(ctx, target, pool, orderedText, orderedNode, textScorer, nodeScorer, flt)
	sp.End(obs.Int("shards", len(target)), obs.Int("lost", len(lost)))
	if len(lost) > 0 {
		return nil, lost
	}

	// Gather: merge the per-slot lists (decoded straight into
	// global positions) with the sharded-merge comparator, fuse, and
	// materialize documents.
	gsp := tr.Start(obs.StageGather)
	bowLists := make([][]search.Hit, len(target))
	bonLists := make([][]search.Hit, len(target))
	for i := range target {
		bowLists[i], bonLists[i] = perSlot[i].Text, perSlot[i].Node
	}
	bow := search.MergeTopK(pool, bowLists...)
	bon := search.MergeTopK(pool, bonLists...)
	fused := search.Fuse(bow, bon, beta, k)
	results, lost := rt.gatherDocs(ctx, target, fused, terms)
	gsp.End(obs.Int("bow_candidates", len(bow)), obs.Int("bon_candidates", len(bon)), obs.Int("fused", len(fused)))
	if len(lost) > 0 {
		return nil, lost
	}
	return &server.SearchResponse{Query: q, K: k, Results: results}, nil
}

// scatter is the router's one fan-out: it runs fn once per target slot,
// concurrently — the last on the calling goroutine, which would otherwise
// only wait — and returns the indexes of the slots whose call failed, in
// target order. Search and document gather are each one call per slot
// whose failure loses that slot for the pass.
func (rt *Router) scatter(target []*slot, fn func(i int, sl *slot) error) (lost []int) {
	if len(target) == 0 {
		return nil
	}
	errs := make([]error, len(target))
	var wg sync.WaitGroup
	last := len(target) - 1
	for i, sl := range target[:last] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, sl)
		}()
	}
	errs[last] = fn(last, target[last])
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			lost = append(lost, target[i].idx)
		}
	}
	return lost
}

// scatterSearch fans the ordered-term evaluation out to every target
// slot, one span per shard leg. Results are indexed like target; lost
// slots are reported instead of partial lists.
func (rt *Router) scatterSearch(ctx context.Context, target []*slot, pool int, orderedText, orderedNode []search.OrderedTerm, textScorer, nodeScorer search.BM25, flt wireFilter) ([]SearchResponse, []int) {
	tr := obs.FromContext(ctx)
	perSlot := make([]SearchResponse, len(target))
	// Every slot evaluates the same request, read-only.
	req := SearchRequest{
		Plan:       rt.plan.ID,
		K:          pool,
		Text:       orderedText,
		Node:       orderedNode,
		TextScorer: scorerParams(textScorer),
		NodeScorer: scorerParams(nodeScorer),
		After:      flt.after,
		Before:     flt.before,
		Entities:   flt.entities,
	}
	lost := rt.scatter(target, func(i int, sl *slot) error {
		sp := tr.Start(sl.stage)
		// Hits decode straight into global positions.
		perSlot[i].Base = sl.plan.Base
		err := rt.callSlot(ctx, sl, "/v1/shard/search", &req, &perSlot[i])
		sp.End(obs.Int("text_hits", len(perSlot[i].Text)), obs.Int("node_hits", len(perSlot[i].Node)),
			obs.Bool("failed", err != nil))
		return err
	})
	return perSlot, lost
}

func scorerParams(s search.BM25) ScorerParams {
	return ScorerParams{K1: s.K1, B: s.B, N: s.N, AvgLen: s.AvgLen}
}

// gatherDocs materializes the fused ranking: positions are grouped by
// owning slot, fetched in parallel, and reassembled in rank order.
func (rt *Router) gatherDocs(ctx context.Context, target []*slot, fused []search.Hit, terms []string) ([]newslink.Result, []int) {
	results := make([]newslink.Result, len(fused))
	if len(fused) == 0 {
		return results, nil
	}
	// ranks[i] lists the fused ranks target[i] serves, each list carved
	// from one backing array with room for all of them. A plan has a
	// handful of slots, so finding a hit's slot in target is a short scan.
	ranks := make([][]int, len(target))
	store := make([]int, len(target)*len(fused))
	for i := range ranks {
		ranks[i] = store[i*len(fused) : i*len(fused) : (i+1)*len(fused)]
	}
	var lost []int
	for rank, h := range fused {
		idx := rt.plan.slotOfPos(int(h.Doc))
		ti := slices.IndexFunc(target, func(sl *slot) bool { return sl.idx == idx })
		if ti < 0 {
			// A merged hit can only come from a target slot; this is a
			// plan/merge invariant violation, treat the slot as lost.
			if !slices.Contains(lost, idx) {
				lost = append(lost, idx)
			}
			continue
		}
		ranks[ti] = append(ranks[ti], rank)
	}
	lost = append(lost, rt.scatter(target, func(ti int, sl *slot) error {
		ranks := ranks[ti]
		if len(ranks) == 0 {
			return nil
		}
		req := DocsRequest{Plan: rt.plan.ID, Positions: make([]int, len(ranks)), Terms: terms}
		for i, rank := range ranks {
			req.Positions[i] = int(fused[rank].Doc) - sl.plan.Base
		}
		var resp DocsResponse
		if err := rt.callSlot(ctx, sl, "/v1/shard/docs", &req, &resp); err != nil {
			return err
		}
		if len(resp.Docs) != len(ranks) {
			return fmt.Errorf("cluster: slot %d returned %d documents for %d positions", sl.idx, len(resp.Docs), len(ranks))
		}
		for i, rank := range ranks {
			results[rank] = newslink.Result{
				ID:      resp.Docs[i].ID,
				Title:   resp.Docs[i].Title,
				Score:   fused[rank].Score,
				Snippet: resp.Docs[i].Snippet,
			}
		}
		return nil
	})...)
	return results, lost
}

func (rt *Router) handleExplain(w http.ResponseWriter, r *http.Request) {
	q, id, paths, err := server.ExplainParams(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	flt := rt.wireFilterOf(q.After, q.Before, q.Entities)
	idx, ok := rt.plan.ShardOf(id)
	if !ok {
		server.WriteError(w, http.StatusNotFound, "unknown_document", "no live document %d", id)
		return
	}
	sl := rt.slots[idx]
	if len(sl.live()) == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, "shard_unavailable",
			"the shard holding document %d is unavailable", id)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	req := ExplainRequest{Plan: rt.plan.ID, Query: q.Text, DocID: id, MaxPaths: paths,
		After: flt.after, Before: flt.before, Entities: flt.entities}
	var resp ExplainResponse
	if err := rt.callSlot(ctx, sl, "/v1/shard/explain", &req, &resp); err != nil {
		var se *rpcStatusError
		switch {
		case errors.As(err, &se) && se.Status == http.StatusNotFound:
			server.WriteError(w, http.StatusNotFound, "unknown_document", "%s", se.Message)
		case errors.Is(err, context.DeadlineExceeded):
			server.WriteError(w, http.StatusGatewayTimeout, "deadline_exceeded", "query deadline exceeded")
		case errors.Is(err, context.Canceled):
			server.WriteError(w, server.StatusClientClosedRequest, "client_closed_request", "request cancelled")
		default:
			server.WriteError(w, http.StatusServiceUnavailable, "shard_unavailable", "%v", err)
		}
		return
	}
	server.WriteJSON(w, http.StatusOK, server.ExplainResponse{Query: q.Text, DocID: id, Explanation: resp.Explanation})
}
