package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"newslink"
	"newslink/internal/core"
	"newslink/internal/index"
	"newslink/internal/kg"
	"newslink/internal/nlp"
	"newslink/internal/obs"
	"newslink/internal/search"
	"newslink/internal/server"
	"newslink/internal/wal"
)

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the ID of the span that caused this one (-1 for the op's root).
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder is the benchmark's own span recorder: spans are recorded from
// these files, around the calls into each layer, kept in memory and written
// out when the run ends. It is used from one goroutine only.
type recorder struct {
	t0    time.Time
	op    int
	spans []span
	stack []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do times f as a span named name under the currently open span.
func (r *recorder) do(name string, f func()) {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Op: r.op, ID: id, Parent: parent, Name: name})
	r.stack = append(r.stack, id)
	r.spans[id].Start = int64(time.Since(r.t0))
	f()
	r.spans[id].End = int64(time.Since(r.t0))
	r.stack = r.stack[:len(r.stack)-1]
}

// totals sums span durations and counts spans by name.
func (r *recorder) totals() (dur map[string]time.Duration, count map[string]int) {
	dur, count = map[string]time.Duration{}, map[string]int{}
	for _, s := range r.spans {
		dur[s.Name] += time.Duration(s.End - s.Start)
		count[s.Name]++
	}
	return dur, count
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Engine registry counters the traced run reads deltas of.
const (
	mQueryMisses = "newslink_query_cache_misses_total"
	mEmbedMisses = "newslink_embed_cache_misses_total"
	mWALBytes    = "newslink_wal_appended_bytes_total"
	mWALFsync    = "newslink_wal_fsync_seconds"
)

func counter(e *newslink.Engine, name string) int64 { return e.Metrics().Counter(name, "").Value() }

func us(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(time.Microsecond) / float64(n)
}

// tracer holds the state of one traced run.
type tracer struct {
	in   *inputs
	cfg  newslink.Config // the engine's: pool depth and beta of the replay
	e    *newslink.Engine
	g    *kg.Graph
	rec  *recorder
	pipe *nlp.Pipeline
	emb  *core.Embedder

	// inside sums the engine's own obs stage spans, for the cross-check
	// against the outside-measured layer calls.
	inside map[string]time.Duration

	searches, filtered, misses, embedded int
	groups                               int
	embedStats                           core.EmbedStats
	retrieval                            search.RetrievalStats
	pathsDur                             time.Duration
	docBytes                             int
	writes                               int
	mismatches                           []string
}

// searchOp records one search: the engine's own call as the parent span,
// then the same work decomposed into calls on each layer's public
// functions, the way cluster/worker.go composes them. The decomposed
// ranking must equal the engine's, or the decomposition measures other
// work than the engine does.
func (t *tracer) searchOp(o op) {
	ctx := context.Background()
	e, rec := t.e, t.rec
	t.searches++
	qm0, em0 := counter(e, mQueryMisses), counter(e, mEmbedMisses)
	var resp newslink.SearchResponse
	var err error
	tctx, tr := obs.WithTrace(ctx)
	rec.do("engine.search", func() { resp, err = e.SearchContextFull(tctx, o.query) })
	if err != nil {
		t.mismatches = append(t.mismatches, fmt.Sprintf("op %d: %v", rec.op, err))
		return
	}
	for _, sp := range tr.Spans() {
		t.inside[sp.Stage] += sp.Dur
	}
	queryMiss := counter(e, mQueryMisses) > qm0
	embedMiss := counter(e, mEmbedMisses) > em0

	var fused []search.Hit
	var results []newslink.Result
	rec.do("engine.decomposed", func() {
		var terms []string
		var nodeW map[string]float64
		// After the parent call the analysis is cached, so this is the
		// lookup; what a miss paid beyond it is re-run on the benchmark's
		// own pipeline and embedder below.
		rec.do("engine.analyze", func() { terms, nodeW, err = e.AnalyzeQuery(ctx, o.query.Text) })
		if queryMiss {
			t.misses++
			var groups [][]string
			rec.do("nlp.process", func() {
				groups = nlp.MaximalSets(t.pipe.Process(o.query.Text).EntityGroups())
			})
			t.groups += len(groups)
			if embedMiss {
				t.embedded++
				rec.do("core.embed", func() {
					_, st, _ := t.emb.EmbedGroupsContext(ctx, groups)
					t.embedStats.Groups += st.Groups
					t.embedStats.Expansions += st.Expansions
					t.embedStats.GroupCacheHits += st.GroupCacheHits
				})
			}
		}
		var text, node index.Source
		rec.do("engine.sources", func() { text, node, err = e.Sources() })
		if q := o.query; q.After != 0 || q.Before != 0 || len(q.Entities) > 0 {
			t.filtered++
			rec.do("engine.filtered_sources", func() {
				text, node, err = e.FilteredSources(q.After, q.Before, e.EntityTerms(q.Entities))
			})
		}
		if err != nil {
			return
		}
		cfg := t.cfg
		pool := min(max(cfg.PoolDepth, o.query.K), e.NumDocs())
		var bow, bon []search.Hit
		rec.do("search.bow", func() {
			var st search.RetrievalStats
			bow, st, err = search.TopKBlockMaxStats(ctx, text, search.NewBM25(text), search.NewQuery(terms), pool)
			t.addRetrieval(st)
		})
		if nodeW != nil && err == nil {
			rec.do("search.bon", func() {
				// The engine's BON scorer: no length penalty, fast saturation.
				sc := search.NewBM25(node)
				sc.B, sc.K1 = 0, 0.4
				var st search.RetrievalStats
				bon, st, err = search.TopKBlockMaxStats(ctx, node, sc, search.Query(nodeW), pool)
				t.addRetrieval(st)
			})
		}
		rec.do("search.fuse", func() { fused = search.Fuse(bow, bon, cfg.Beta, o.query.K) })
		rec.do("engine.gather", func() {
			results = make([]newslink.Result, len(fused))
			for i, h := range fused {
				doc, derr := e.DocAt(int(h.Doc))
				if derr != nil {
					err = derr
					return
				}
				results[i] = newslink.Result{ID: doc.ID, Title: doc.Title, Score: h.Score,
					Snippet: newslink.Snippet(doc.Text, terms)}
			}
		})
	})
	if err != nil {
		t.mismatches = append(t.mismatches, fmt.Sprintf("op %d decomposed: %v", rec.op, err))
		return
	}
	if len(results) != len(resp.Results) || (len(results) > 0 && !reflect.DeepEqual(results, resp.Results)) {
		t.mismatches = append(t.mismatches, fmt.Sprintf("op %d (%s): decomposed ranking differs from the engine's", rec.op, o.path))
	}
}

func (t *tracer) addRetrieval(st search.RetrievalStats) {
	t.retrieval.Scored += st.Scored
	t.retrieval.BlocksDecoded += st.BlocksDecoded
	t.retrieval.BlocksSkipped += st.BlocksSkipped
}

// otherOp records the non-search ops of the mixed workload. Writes are
// drained before the next op so that what each read sees — and with it
// every count-type metric — does not depend on the applier's timing.
func (t *tracer) otherOp(o op) {
	ctx := context.Background()
	e, rec := t.e, t.rec
	var err error
	switch o.kind {
	case opRelated:
		rec.do("engine.related", func() {
			_, err = e.RelatedContext(ctx, newslink.RelatedQuery{DocID: o.docID, K: searchK})
		})
	case opExplain:
		tctx, tr := obs.WithTrace(ctx)
		rec.do("engine.explain", func() { _, err = e.ExplainQueryContext(tctx, o.query, o.docID, explainPaths) })
		for _, sp := range tr.Spans() {
			if sp.Stage == obs.StagePaths {
				t.pathsDur += sp.Dur
			}
		}
	case opIngest:
		t.writes++
		t.docBytes += len(o.doc.Title) + len(o.doc.Text)
		rec.do("ingest.ack", func() { err = e.Ingest(o.doc) })
		rec.do("ingest.apply", e.FlushIngest)
	case opDelete:
		rec.do("engine.delete", func() { err = e.Delete(o.docID) })
	}
	if err != nil {
		t.mismatches = append(t.mismatches, fmt.Sprintf("op %d %s: %v", rec.op, o.path, err))
	}
}

// putFunc stores one per-layer metric under its BENCHMARK.json unit.
type putFunc func(name string, v float64)

// memDelta is what a stretch of work cost the Go runtime.
type memDelta struct {
	bytes, allocs uint64
	gcs           uint32
	pause, wall   time.Duration
	heapInUse     uint64
}

func measureMem(f func()) memDelta {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	runtime.ReadMemStats(&b)
	return memDelta{bytes: b.TotalAlloc - a.TotalAlloc, allocs: b.Mallocs - a.Mallocs, gcs: b.NumGC - a.NumGC,
		pause: time.Duration(b.PauseTotalNs - a.PauseTotalNs), wall: wall, heapInUse: b.HeapInuse}
}

// rpcCounter wraps shard workers: it counts the RPCs they serve, the bytes
// in both directions, and the time inside the handlers.
type rpcCounter struct {
	mu                    sync.Mutex
	rpcs, bytes, searches int64
	rpcDur, searchDur     time.Duration
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (c *rpcCounter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		d := time.Since(t0)
		// One goroutine drives the router, but its scatter still serves
		// the shards from concurrent handler goroutines.
		c.mu.Lock()
		c.rpcs++
		c.bytes += max(r.ContentLength, 0) + cw.n
		c.rpcDur += d
		if strings.HasSuffix(r.URL.Path, "/shard/search") {
			c.searches++
			c.searchDur += d
		}
		c.mu.Unlock()
	})
}

func (c *rpcCounter) reset() {
	c.mu.Lock()
	c.rpcs, c.bytes, c.searches, c.rpcDur, c.searchDur = 0, 0, 0, 0, 0
	c.mu.Unlock()
}

// runTrace is the traced run: in-process, one goroutine driving, the first
// tracedOps ops of the schedule. It fills every per-layer metric (0 where
// a layer is not part of the workload) and checks the workload's
// predictions.
func runTrace(ct *contract, in *inputs, workdir, tracePath string) (run, error) {
	s := in.spec
	r := run{Workload: s.name, Mode: "trace", Seed: in.seed, Metrics: metrics{}, Diagnostics: metrics{}}
	// Every per-layer metric BENCHMARK.json names is reported on every
	// workload: 0 where the layer is not part of it.
	m := r.Metrics
	units := map[string]string{}
	for _, d := range ct.PerLayer {
		units[d.Name] = d.Unit
		m.set(d.Name, 0, d.Unit)
	}
	put := func(name string, v float64) {
		u, ok := units[name]
		if !ok {
			panic("per-layer metric " + name + " is not in BENCHMARK.json")
		}
		m.set(name, v, u)
	}

	var opts []newslink.Option
	if s.stream {
		opts = append(opts, newslink.WithWAL(filepath.Join(workdir, "trace-wal")), newslink.WithIngestQueue(ingestQueue))
	}
	e, g, err := buildEngine(in, s.segments, opts...)
	if err != nil {
		return r, err
	}
	defer e.Close()
	// One P from here on: the engine's internal fan-out (BOW ∥ BON,
	// sharded traversal) then runs serially, so the layer calls add up to
	// the parent span and counters repeat exactly.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	cfg := newslink.DefaultConfig()
	t := &tracer{in: in, cfg: cfg, e: e, g: g, rec: newRecorder(), inside: map[string]time.Duration{},
		pipe: nlp.NewPipeline(g.Index()),
		emb: core.NewEmbedder(g, core.Options{Model: cfg.Model, MaxDepth: cfg.MaxDepth,
			MaxExpansions: cfg.MaxExpansions, GroupCacheSize: 256})}
	wb0 := counter(e, mWALBytes)
	fs0 := e.Metrics().Histogram(mWALFsync, "", nil).Count()

	// The collector is kept out of the timed spans: it is switched off and
	// run by hand between ops, so a span is the layer's own work whatever
	// the heap looked like. Its bill is measured on its own further down,
	// with the collector back on (runtime.*).
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	const gcEvery = 64

	// Pass A: every op, traced.
	var searchOps []op
	for i := 0; i < s.tracedOps; i++ {
		if i%gcEvery == 0 {
			runtime.GC()
		}
		o, _ := in.at(i)
		t.rec.op = i
		if o.kind == opSearch {
			searchOps = append(searchOps, o)
			t.searchOp(o)
		} else {
			t.otherOp(o)
		}
	}
	r.Attempted = s.tracedOps
	dur, count := t.rec.totals()
	nS := t.searches

	put("engine.search_us", us(dur["engine.search"], nS))
	put("engine.analyze_us", us(dur["engine.analyze"], nS))
	put("nlp.process_us", us(dur["nlp.process"], nS))
	put("nlp.groups_per_query", ratio(float64(t.groups), float64(t.misses)))
	put("core.embed_us", us(dur["core.embed"], nS))
	put("core.expansions_per_query", ratio(float64(t.embedStats.Expansions), float64(t.embedded)))
	put("core.group_cache_hit_ratio", ratio(float64(t.embedStats.GroupCacheHits), float64(t.embedStats.Groups)))
	// Hits and misses of the engine's own searches only: the decomposed
	// replay looks the cached analysis up again and would count as a hit.
	put("engine.query_cache_hit_ratio", ratio(float64(nS-t.misses), float64(nS)))
	put("engine.embed_cache_hit_ratio", ratio(float64(t.misses-t.embedded), float64(t.misses)))
	put("engine.gather_us", us(dur["engine.gather"], nS))
	if t.filtered > 0 {
		put("engine.filtered_sources_us", us(dur["engine.filtered_sources"], t.filtered)-us(dur["engine.sources"], nS))
	}
	put("search.bow_us", us(dur["search.bow"], nS))
	put("search.bon_us", us(dur["search.bon"], nS))
	put("search.fuse_us", us(dur["search.fuse"], nS))
	put("search.postings_scored_per_query", ratio(float64(t.retrieval.Scored), float64(nS)))
	put("search.blocks_decoded_per_query", ratio(float64(t.retrieval.BlocksDecoded), float64(nS)))
	put("search.blocks_skipped_per_query", ratio(float64(t.retrieval.BlocksSkipped), float64(nS)))
	put("search.block_skip_ratio", ratio(float64(t.retrieval.BlocksSkipped),
		float64(t.retrieval.BlocksDecoded+t.retrieval.BlocksSkipped)))
	children := dur["engine.analyze"] + dur["nlp.process"] + dur["core.embed"] + dur["engine.sources"] +
		dur["engine.filtered_sources"] + dur["search.bow"] + dur["search.bon"] + dur["search.fuse"] + dur["engine.gather"]
	residual := 100 * ratio(float64(dur["engine.search"]-children), float64(dur["engine.search"]))
	put("engine.residual_pct", residual)
	put("engine.related_us", us(dur["engine.related"], count["engine.related"]))
	put("engine.explain_us", us(dur["engine.explain"], count["engine.explain"]))
	put("core.explain_paths_us", us(t.pathsDur, count["engine.explain"]))
	put("ingest.ack_us", us(dur["ingest.ack"], t.writes))
	put("ingest.apply_docs_per_s", ratio(float64(t.writes), dur["ingest.apply"].Seconds()))
	put("wal.bytes_per_doc_byte", ratio(float64(counter(e, mWALBytes)-wb0), float64(t.docBytes)))
	put("wal.fsyncs_per_doc", ratio(float64(e.Metrics().Histogram(mWALFsync, "", nil).Count()-fs0), float64(t.writes)))
	put("index.segments_end", float64(e.NumSegments()))

	// The engine's own stage spans beside the outside-measured calls.
	cross := []struct {
		stage   string
		outside time.Duration
	}{
		{obs.StageAnalyze, dur["engine.analyze"] + dur["nlp.process"] + dur["core.embed"]},
		{obs.StageEmbed, dur["core.embed"]},
		{obs.StageBOW, dur["search.bow"]},
		{obs.StageBON, dur["search.bon"]},
		{obs.StageFuse, dur["search.fuse"]},
		{obs.StageTopK, dur["engine.gather"]},
	}
	for _, c := range cross {
		r.Notes = append(r.Notes, fmt.Sprintf("stage %-13s outside %9.1f us/op  inside %9.1f us/op",
			c.stage, us(c.outside, nS), us(t.inside[c.stage], nS)))
	}

	if s.stream {
		t.writePath(put, workdir)
	}

	// Pass B: the searches again, untraced, in alternating chunks — through
	// the HTTP layer into a recorder, and straight into the engine — so the
	// two means are taken over the same stretch of time and their
	// difference is the HTTP layer's own share. A chunk is two cycles of
	// the hot pool and a whole number of mixed-ingest filter periods.
	const chunk = 2 * hotQueries
	h := server.New(e).Handler()
	var handleDur, plainDur time.Duration
	var handled, plain, respBytes int
	ctx := context.Background()
	for lo := 0; lo < len(searchOps); lo += chunk {
		runtime.GC()
		for _, o := range searchOps[lo:min(lo+chunk, len(searchOps))] {
			if (lo/chunk)%2 == 0 {
				req := httptest.NewRequest(o.method, o.path, nil)
				rr := httptest.NewRecorder()
				t0 := time.Now()
				h.ServeHTTP(rr, req)
				handleDur += time.Since(t0)
				handled++
				respBytes += rr.Body.Len()
				if rr.Code != http.StatusOK {
					t.mismatches = append(t.mismatches, fmt.Sprintf("server handler: %s: status %d", o.path, rr.Code))
				}
				continue
			}
			t0 := time.Now()
			_, err := e.SearchContextFull(ctx, o.query)
			plainDur += time.Since(t0)
			plain++
			if err != nil {
				t.mismatches = append(t.mismatches, fmt.Sprintf("untraced: %s: %v", o.path, err))
			}
		}
	}
	put("server.handle_us", us(handleDur, handled))
	put("server.self_us", us(handleDur, handled)-us(plainDur, plain))
	put("server.response_bytes", ratio(float64(respBytes), float64(handled)))
	put("bench.trace_overhead_pct", 100*ratio(us(dur["engine.search"], nS)-us(plainDur, plain), us(plainDur, plain)))

	// Pass C: the searches once more with the collector on, for what they
	// cost the runtime.
	debug.SetGCPercent(gcPercent)
	mem := measureMem(func() {
		for _, o := range searchOps {
			if _, err := e.SearchContextFull(ctx, o.query); err != nil {
				t.mismatches = append(t.mismatches, fmt.Sprintf("untraced: %s: %v", o.path, err))
			}
		}
	})
	put("engine.search_bytes_per_op", ratio(float64(mem.bytes), float64(nS)))
	put("engine.search_allocs_per_op", ratio(float64(mem.allocs), float64(nS)))
	put("runtime.gc_cycles_per_kop", 1000*ratio(float64(mem.gcs), float64(nS)))
	put("runtime.gc_pause_ms_per_kop", 1000*ratio(float64(mem.pause)/float64(time.Millisecond), float64(nS)))
	put("runtime.heap_inuse_mb", float64(mem.heapInUse)/(1<<20))
	// How much slower the same searches run once they pay for their own
	// garbage: collector on against collector off.
	put("runtime.gc_tax_pct", 100*ratio(us(mem.wall, nS)-us(plainDur, plain), us(plainDur, plain)))

	t.blockDecode(put, searchOps)
	snapshot := filepath.Join(workdir, "trace-snapshot")
	if err := t.lifecycle(put, snapshot); err != nil {
		return r, err
	}
	if s.shards > 0 {
		if err := t.clusterPass(put, searchOps, snapshot, workdir); err != nil {
			return r, err
		}
	}

	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return r, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	r.Notes = append(r.Notes, t.predictions(m)...)
	for i, mm := range t.mismatches {
		if i < maxReportedFailures {
			r.Notes = append(r.Notes, "failed: "+mm)
		}
	}
	r.Failed = min(len(t.mismatches), r.Attempted)
	r.Correct = len(t.mismatches) == 0
	if tracePath != "" {
		if err := t.rec.write(tracePath); err != nil {
			return r, err
		}
	}
	return r, nil
}

// writePath measures the write side outside the op loop: the WAL on a
// scratch directory, and how long an acknowledged document takes to become
// searchable when nothing forces the applier.
func (t *tracer) writePath(put putFunc, workdir string) {
	l, err := wal.Open(filepath.Join(workdir, "scratch-wal"), wal.Options{})
	if err != nil {
		t.mismatches = append(t.mismatches, "wal.Open: "+err.Error())
		return
	}
	const appends = 200
	var d time.Duration
	for i := 0; i < appends; i++ {
		a := t.in.stream[i%len(t.in.stream)]
		payload := ingestBody(newslink.Document{ID: a.ID, Title: a.Title, Text: a.Text, Time: a.Time})
		t0 := time.Now()
		err = l.Append(payload)
		d += time.Since(t0)
		if err != nil {
			t.mismatches = append(t.mismatches, "wal.Append: "+err.Error())
			break
		}
	}
	_ = l.Close() // scratch log; its records are never replayed
	put("wal.append_us", us(d, appends))

	const canaries = 5
	var lags []float64
	for i := 0; i < canaries; i++ {
		token := "zqcanary" + string(rune('a'+i)) // letters only: one index term
		doc := newslink.Document{ID: 5_000_000 + i, Title: token, Text: "Wire note " + token + "."}
		t0 := time.Now()
		if err := t.e.Ingest(doc); err != nil {
			t.mismatches = append(t.mismatches, "canary ingest: "+err.Error())
			return
		}
		for {
			rs, err := t.e.Search(token, 1)
			if err == nil && len(rs) == 1 && rs[0].ID == doc.ID {
				break
			}
			if time.Since(t0) > 5*time.Second {
				t.mismatches = append(t.mismatches, "canary "+token+" not searchable after 5s")
				return
			}
			time.Sleep(time.Millisecond)
		}
		lags = append(lags, float64(time.Since(t0))/float64(time.Millisecond))
	}
	put("ingest.visible_lag_p50_ms", median(lags))
}

// blockDecode walks the postings blocks of the query terms with bare
// cursors — no scoring — to price the decode itself.
func (t *tracer) blockDecode(put putFunc, searchOps []op) {
	text, _, err := t.e.Sources()
	if err != nil {
		return
	}
	var d time.Duration
	blocks := 0
	for _, o := range searchOps[:min(len(searchOps), 200)] {
		terms, _, err := t.e.AnalyzeQuery(context.Background(), o.query.Text)
		if err != nil {
			continue
		}
		t0 := time.Now()
		for _, term := range terms {
			c := text.TermCursor(term)
			if c == nil {
				continue
			}
			for c.NextBlock() {
				if _, err := c.Block(); err != nil {
					break
				}
				blocks++
			}
			index.ReleaseCursor(c)
		}
		d += time.Since(t0)
	}
	if blocks > 0 {
		put("index.block_decode_ns", float64(d)/float64(blocks))
	}
}

func dirBytes(dir, suffix string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), suffix) {
			continue
		}
		fi, err := ent.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// lifecycle prices the segment lifecycle on a copy of the traced engine's
// state: save, load, then a refresh and a compaction of the loaded engine.
func (t *tracer) lifecycle(put putFunc, snapshot string) error {
	t.e.FlushIngest()
	docs := t.e.NumDocs()
	t0 := time.Now()
	if err := t.e.Save(snapshot); err != nil {
		return fmt.Errorf("saving snapshot: %w", err)
	}
	put("engine.save_ms", float64(time.Since(t0))/float64(time.Millisecond))
	all, err := dirBytes(snapshot, "")
	if err != nil {
		return err
	}
	idx, err := dirBytes(snapshot, ".idx")
	if err != nil {
		return err
	}
	put("engine.snapshot_bytes_per_doc", ratio(float64(all), float64(docs)))
	put("index.postings_bytes_per_doc", ratio(float64(idx), float64(docs)))

	t0 = time.Now()
	e2, err := newslink.Load(snapshot, t.g)
	if err != nil {
		return fmt.Errorf("loading snapshot: %w", err)
	}
	defer e2.Close()
	put("engine.load_ms", float64(time.Since(t0))/float64(time.Millisecond))

	// One ingest micro-batch worth of fresh documents, sealed by Refresh.
	fresh := make([]newslink.Document, min(256, len(t.in.base)))
	for i := range fresh {
		a := t.in.base[i]
		fresh[i] = newslink.Document{ID: 6_000_000 + i, Title: a.Title, Text: a.Text, Time: a.Time}
	}
	if err := e2.AddAll(fresh, 0); err != nil {
		return err
	}
	t0 = time.Now()
	e2.Refresh()
	put("engine.refresh_ms", float64(time.Since(t0))/float64(time.Millisecond))
	t0 = time.Now()
	if err := e2.Compact(); err != nil {
		return err
	}
	put("engine.compact_ms", float64(time.Since(t0))/float64(time.Millisecond))
	return nil
}

// clusterPass drives the router over three in-process shard workers with
// the same searches, counting RPCs and bytes at the workers.
func (t *tracer) clusterPass(put putFunc, searchOps []op, snapshot, workdir string) error {
	var rc rpcCounter
	dir := filepath.Join(workdir, "trace-cluster")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tg, err := inProcess(t.in, snapshot, rc.wrap)(dir)
	if err != nil {
		return err
	}
	defer tg.stop()
	c := newClient(tg.url, t.in.spec.shards)
	defer c.close()
	if err := awaitReady(c, t.in); err != nil {
		return err
	}
	rc.reset() // assignment and the warm query are set-up, not queries
	var d time.Duration
	for _, o := range searchOps {
		req := httptest.NewRequest(o.method, o.path, nil)
		rr := httptest.NewRecorder()
		t0 := time.Now()
		tg.handler.ServeHTTP(rr, req)
		d += time.Since(t0)
		if err := c.validate(o, rr.Code, rr.Body.Bytes()); err != nil {
			t.mismatches = append(t.mismatches, "router: "+err.Error())
		}
	}
	n := len(searchOps)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	put("cluster.router_handle_us", us(d, n))
	put("cluster.worker_search_us", us(rc.searchDur, int(rc.searches)))
	// Under one P the worker handlers run one after the other, so their
	// summed time is the part of a query not spent in the router: what is
	// left is routing, RPC encode/decode, the HTTP client and loopback.
	put("cluster.router_self_us", us(d-rc.rpcDur, n))
	put("cluster.rpcs_per_query", ratio(float64(rc.rpcs), float64(n)))
	put("cluster.rpc_bytes_per_query", ratio(float64(rc.bytes), float64(n)))
	if sc, err := scrape(c); err == nil {
		put("cluster.retries_per_query", ratio(sc["newslink_cluster_retries_total"], float64(n)))
		put("cluster.partial_ratio", ratio(sc["newslink_cluster_partial_results_total"], float64(n)))
	}
	return nil
}

// predictions checks what each workload is claimed to isolate; a workload
// that stops behaving as described no longer tests what its name says.
func (t *tracer) predictions(m metrics) []string {
	var notes []string
	check := func(ok bool, format string, args ...any) {
		verdict := "holds"
		if !ok {
			verdict = "VIOLATED"
			t.mismatches = append(t.mismatches, "prediction: "+fmt.Sprintf(format, args...))
		}
		notes = append(notes, "prediction "+verdict+": "+fmt.Sprintf(format, args...))
	}
	s := t.in.spec
	hit := m["engine.query_cache_hit_ratio"].Value
	share := ratio(m["nlp.process_us"].Value+m["core.embed_us"].Value, m["engine.search_us"].Value)
	toy := s.tracedOps < 1000 // too few ops for cache ratios to settle
	switch {
	case toy:
	case s.distinct:
		check(hit <= 0.05, "query cache hit ratio %.3f <= 0.05 (every query is new)", hit)
		check(share >= 0.5, "(nlp+embed)/search %.2f >= 0.5 (analysis and G* dominate)", share)
	case !s.stream:
		check(hit >= 0.95, "query cache hit ratio %.3f >= 0.95 (%d queries < 64-entry cache)", hit, hotQueries)
		check(share <= 0.1, "(nlp+embed)/search %.2f <= 0.1 (retrieval and gather dominate)", share)
	}
	if s.shards > 0 {
		check(m["cluster.rpcs_per_query"].Value >= float64(s.shards), "%.2f RPCs per query >= %d shards",
			m["cluster.rpcs_per_query"].Value, s.shards)
	}
	check((m["wal.fsyncs_per_doc"].Value > 0) == s.stream, "wal.fsyncs_per_doc %.3f > 0 only with a write path",
		m["wal.fsyncs_per_doc"].Value)
	if s.residualGate {
		res := m["engine.residual_pct"].Value
		check(math.Abs(res) <= 15, "|engine.residual_pct| = |%.1f| <= 15 (layer calls add up to the engine's search)", res)
	}
	sort.Strings(notes)
	return notes
}
