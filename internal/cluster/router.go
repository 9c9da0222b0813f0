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
	// replicas serving that slot. Required, one non-empty group per slot,
	// and no URL twice: a worker serves one slot.
	Endpoints [][]string
	// SelfURL is the router's own externally reachable base URL; workers
	// fetch missing or damaged segment artifacts from its blob endpoint.
	// Empty, workers must already hold their artifacts.
	SelfURL string
	// Hedge enables tail-latency hedging: a duplicate request to a second
	// replica once the first has been quiet past the slot's p99.
	Hedge bool
	// ProbeInterval paces the loop that re-assigns ejected endpoints
	// (default 2s).
	ProbeInterval time.Duration
	// RequestTimeout is the total budget of one client request (the
	// front door's query timeout); per-shard attempt deadlines are carved
	// out of what remains of it (default 10s).
	RequestTimeout time.Duration
	// Logger receives structured ejection/re-admission events and the
	// front door's access log.
	Logger *slog.Logger

	// Test seams; zero selects the constant of the same name.
	maxAttempts int
	retryBase   time.Duration
	hedgeMin    time.Duration
}

// The robustness policy's fixed parameters.
const (
	// maxAttempts bounds the tries of one idempotent RPC across a slot's
	// replicas.
	maxAttempts = 3
	// retryBase is the first retry's backoff; later retries double it,
	// jittered.
	retryBase = 10 * time.Millisecond
	// hedgeMin floors the hedge delay while latency history is thin.
	hedgeMin = 20 * time.Millisecond
	// probeTimeout bounds one assignment round trip, artifact fetches
	// included.
	probeTimeout = 15 * time.Second
	// breakerThreshold is the consecutive-failure count that ejects an
	// endpoint.
	breakerThreshold = 3
)

func (c Config) withDefaults() Config {
	if c.maxAttempts <= 0 {
		c.maxAttempts = maxAttempts
	}
	if c.retryBase <= 0 {
		c.retryBase = retryBase
	}
	if c.hedgeMin <= 0 {
		c.hedgeMin = hedgeMin
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	return c
}

// slot is one shard of the plan at runtime: its replicas, round-robin
// cursor, latency history and the indexes of its segments.
type slot struct {
	idx   int
	stage string // the slot's span name, obs.StageShard(idx)
	plan  ShardPlan
	eps   []*endpoint
	next  atomic.Int64
	lat   *obs.Histogram
	reqs  map[string]*obs.Counter // outcome -> request counter

	// text and node are the slot's segment indexes in plan order — the
	// router engine's own, on the heap; the router never decodes a block.
	text, node []index.Source
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
		text, node = append(text, sl.text...), append(node, sl.node...)
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

// Router serves the public API from an engine over the whole snapshot —
// documents and the knowledge graph, so analysis, fusion,
// documents, snippets, related news and explanations run here exactly as
// in a single process — while the postings traversals of every request
// are scattered over the shard workers (traverse). It also serves the
// snapshot's artifacts to the workers over the blob endpoint.
type Router struct {
	plan     *Plan
	dir      string
	cfg      Config
	log      *slog.Logger
	client   *http.Client
	engine   *newslink.Engine
	registry *obs.Registry
	slots    []*slot

	mRetries *obs.Counter
	mHedges  *obs.Counter
	mPartial *obs.Counter

	// full is the statistics view of the healthy target (every slot),
	// immutable like the snapshot; a degraded pass builds its subset's.
	full corpusStats

	// stopProbe ends the probe loop Start launched, and probing waits
	// for it to return: a closed router assigns no worker.
	stopProbe context.CancelFunc
	probing   sync.WaitGroup
}

// NewRouter builds a router over the version-7 snapshot in dir (any other
// version is ErrSnapshotVersion, as for every loader): it
// restores the snapshot as newslink.LoadRouted (every artifact
// checksum-verified; a damaged one is ErrSnapshotCorrupt), partitions the
// segment set into len(cfg.Endpoints) slots (fewer when the snapshot has
// fewer segments; surplus endpoint groups fold into the existing slots as
// extra replicas), and prepares — but does not start — the serving state.
// Call Start to assign workers and begin health probing, and serve Handler
// over HTTP at cfg.SelfURL before Start so workers can fetch artifacts.
// Close the router when done.
func NewRouter(dir string, g *kg.Graph, cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Endpoints) == 0 {
		return nil, fmt.Errorf("cluster: no shard endpoints configured")
	}
	// A search RPC does not name its slot, so a worker listed twice would
	// serve one slot's postings for the other's.
	seen := make(map[string]bool)
	for i, group := range cfg.Endpoints {
		if len(group) == 0 {
			return nil, fmt.Errorf("cluster: endpoint group %d is empty", i)
		}
		for _, url := range group {
			if seen[url] {
				return nil, fmt.Errorf("cluster: endpoint %s is listed more than once; a worker serves one slot", url)
			}
			seen[url] = true
		}
	}
	m, err := newslink.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	rt := &Router{dir: dir, cfg: cfg, log: log, client: &http.Client{}}
	if rt.engine, err = newslink.LoadRouted(dir, g, rt.traverse); err != nil {
		return nil, err
	}
	text, node := rt.engine.SegmentIndexes()
	docs := make([]int, len(text))
	for i, idx := range text {
		docs[i] = idx.NumDocs()
	}
	if rt.plan, err = BuildPlan(m, docs, len(cfg.Endpoints)); err != nil {
		rt.engine.Close()
		return nil, err
	}
	rt.registry = rt.engine.Metrics()
	rt.mRetries = rt.registry.Counter("newslink_cluster_retries_total",
		"Shard RPC retries after a failed attempt.")
	rt.mHedges = rt.registry.Counter("newslink_cluster_hedges_total",
		"Hedged (duplicate) shard requests fired against a second replica.")
	rt.mPartial = rt.registry.Counter("newslink_cluster_partial_results_total",
		"Responses served degraded from a subset of shards.")
	// Surplus endpoint groups (more groups than the snapshot has
	// segments, hence slots) become extra replicas, round-robin.
	groups := make([][]string, len(rt.plan.Shards))
	for i, group := range cfg.Endpoints {
		groups[i%len(rt.plan.Shards)] = append(groups[i%len(rt.plan.Shards)], group...)
	}
	seg := 0
	for i, sp := range rt.plan.Shards {
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
		for range sp.Segments {
			sl.text, sl.node = append(sl.text, text[seg]), append(sl.node, node[seg])
			seg++
		}
		rt.slots = append(rt.slots, sl)
	}
	rt.full = statsOf(rt.slots)
	return rt, nil
}

// Plan returns the router's partitioning (for tests and status surfaces).
func (rt *Router) Plan() *Plan { return rt.plan }

// Start performs the initial assignment of every replica, all of them
// concurrently, and launches the health probe loop once every assignment
// has finished. Replicas that cannot be assigned now stay ejected; the
// probe loop keeps assigning them, so a late-starting worker is admitted
// without intervention. Each replica is admitted the moment its own
// assignment is acknowledged, so one slow worker delays nobody else's.
// Start returns an error only when no replica of any slot could be
// assigned and the router would be permanently useless until workers
// appear.
func (rt *Router) Start(ctx context.Context) error {
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for _, sl := range rt.slots {
		for _, ep := range sl.eps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rt.assign(ctx, sl, ep) {
					admitted.Add(1)
				}
			}()
		}
	}
	wg.Wait()
	ctx, rt.stopProbe = context.WithCancel(ctx)
	rt.probing.Add(1)
	go func() {
		defer rt.probing.Done()
		rt.probeLoop(ctx)
	}()
	if admitted.Load() == 0 {
		return fmt.Errorf("cluster: no worker accepted an assignment (probing continues)")
	}
	rt.log.Info("cluster router started", "plan", rt.plan.ID,
		"slots", len(rt.slots), "replicas_admitted", admitted.Load())
	return nil
}

// Close stops the probe loop, waiting for it to return, and releases idle
// transport connections and the snapshot's open documents files.
func (rt *Router) Close() {
	if rt.stopProbe != nil {
		rt.stopProbe()
	}
	rt.probing.Wait()
	rt.client.CloseIdleConnections()
	_ = rt.engine.Close()
}

// Handler returns the router's public HTTP surface: the single-process
// server's (internal/server) over the router's engine — every route, with
// its grammar, errors, access log and metrics — except that readiness and
// /v1/stats report the cluster (ready while at least one slot has a live
// replica; ClusterStatus), plus the blob endpoint workers fetch artifacts
// from.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", server.New(rt.engine, server.WithQueryTimeout(rt.cfg.RequestTimeout), server.WithLogger(rt.log)).Handler())
	mux.HandleFunc("GET /v1/readyz", rt.handleReady)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /v1/shard/blob/{name}", blobHandler(rt.dir))
	return mux
}

// blobHandler serves content-addressed artifact files from dir. Names
// are validated against the exact artifact grammar, so the handler can
// never be steered outside its directory.
func blobHandler(dir string) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if !validArtifactName(name) {
			server.WriteError(rw, http.StatusBadRequest, "bad_request", "invalid artifact name")
			return
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			server.WriteError(rw, http.StatusNotFound, "not_found", "artifact %s not held here", name)
			return
		}
		defer f.Close()
		rw.Header().Set("Content-Type", "application/octet-stream")
		rw.WriteHeader(http.StatusOK)
		_, _ = io.Copy(rw, f)
	}
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

// Metrics returns the router's registry: its engine's metrics, the HTTP
// layer's, and the cluster counters and per-shard latency histograms.
func (rt *Router) Metrics() *obs.Registry { return rt.registry }

// traverse is the router engine's Traversal step: the request's postings
// traversals scattered over the live slots, with graceful degradation —
// shards that fail mid-request are dropped and the pass re-runs over the
// survivors, statistics re-read over their segments, so the ranking over
// the remaining corpus stays exact. Only zero live shards fail the
// request.
func (rt *Router) traverse(ctx context.Context, t newslink.Traversal) (newslink.Retrieval, error) {
	// failed tracks slots lost during *this* request; each pass either
	// completes or adds at least one slot to it, bounding the degradation
	// loop by the slot count.
	failed := make(map[int]bool)
	for {
		if err := ctx.Err(); err != nil {
			return newslink.Retrieval{}, err
		}
		target := rt.liveSlots(failed)
		if len(target) == 0 {
			return newslink.Retrieval{}, fmt.Errorf("%w: no live shard can serve the request", newslink.ErrShardUnavailable)
		}
		ret, lost := rt.traverseOnce(ctx, target, t)
		if len(lost) > 0 {
			for _, idx := range lost {
				failed[idx] = true
			}
			rt.log.Warn("shards lost mid-request; re-running over the survivors", "lost", lost)
			continue
		}
		if len(target) < len(rt.slots) {
			ret.DegradedReason = "shard_unavailable"
			rt.mPartial.Inc()
		}
		ret.ShardsTotal = len(rt.slots)
		ret.ShardsOK = len(target)
		return ret, nil
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

// traverseOnce runs one pass over a fixed target set. It returns the
// merged candidate lists, or the slots lost during the pass (the caller
// then shrinks the target and re-runs). Filter clauses affect only the
// workers' traversals: statistics stay those of the unfiltered target
// corpus (matching a single process's filtered-statistics semantics), so
// scorers, term order and pool clamp are filter-independent.
func (rt *Router) traverseOnce(ctx context.Context, target []*slot, t newslink.Traversal) (newslink.Retrieval, []int) {
	tr := obs.FromContext(ctx)

	// Statistics: read off the target's merged directories, exactly as a
	// single process over those segments reads them off its own.
	stats := rt.full
	if len(target) < len(rt.slots) {
		stats = statsOf(target)
	}
	// The candidate pool never usefully exceeds the live corpus in
	// target, mirroring the engine's own clamp.
	pool := min(t.Pool, stats.live)
	textScorer := search.NewBM25(stats.text)
	nodeScorer := search.NodeBM25(stats.node.NumDocs(), stats.node.AvgDocLen())

	// Canonical global term order — the engine's own OrderTerms — so every
	// shard accumulates in the same order.
	var orderedText, orderedNode []search.OrderedTerm
	if t.Text != nil {
		orderedText, _ = search.OrderTerms(stats.text, textScorer, t.Text)
	}
	if t.Node != nil {
		orderedNode, _ = search.OrderTerms(stats.node, nodeScorer, t.Node)
	}
	if pool == 0 {
		// The target serves no live document: nothing can match.
		return newslink.Retrieval{}, nil
	}
	sp := tr.Start(obs.StageScatter)
	perSlot, lost := rt.scatterSearch(ctx, target, pool, orderedText, orderedNode, textScorer, nodeScorer, t)
	sp.End(obs.Int("shards", len(target)), obs.Int("lost", len(lost)))
	if len(lost) > 0 {
		return newslink.Retrieval{}, lost
	}

	// Gather: merge the per-slot lists (decoded straight into global
	// positions, each ranked as the worker's kernel returned it) with the
	// sharded-merge comparator.
	gsp := tr.Start(obs.StageGather)
	bowLists := make([][]search.Hit, len(target))
	bonLists := make([][]search.Hit, len(target))
	for i := range target {
		bowLists[i], bonLists[i] = perSlot[i].Text, perSlot[i].Node
	}
	ret := newslink.Retrieval{
		BOW: search.MergeTopK(pool, bowLists...),
		BON: search.MergeTopK(pool, bonLists...),
	}
	gsp.End(obs.Int("bow_candidates", len(ret.BOW)), obs.Int("bon_candidates", len(ret.BON)))
	return ret, nil
}

// scatter is the router's one fan-out: it runs fn once per target slot,
// concurrently — the last on the calling goroutine, which would otherwise
// only wait — and returns the indexes of the slots whose call failed, in
// target order.
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
func (rt *Router) scatterSearch(ctx context.Context, target []*slot, k int, orderedText, orderedNode []search.OrderedTerm, textScorer, nodeScorer search.BM25, t newslink.Traversal) ([]SearchResponse, []int) {
	tr := obs.FromContext(ctx)
	perSlot := make([]SearchResponse, len(target))
	// Every slot evaluates the same request, read-only.
	req := SearchRequest{
		Plan:       rt.plan.ID,
		K:          k,
		Text:       orderedText,
		Node:       orderedNode,
		TextScorer: scorerParams(textScorer),
		NodeScorer: scorerParams(nodeScorer),
		After:      t.After,
		Before:     t.Before,
		Entities:   t.Entities,
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
