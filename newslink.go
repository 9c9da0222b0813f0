// Package newslink is the public API of the NewsLink news-search framework
// (Yang, Li, Tung: "NewsLink: Empowering Intuitive News Search with
// Knowledge Graphs", ICDE 2021).
//
// NewsLink embeds a text query and every news document into subgraph
// embeddings of a knowledge graph and ranks documents by a combination of
// textual (Bag-Of-Words) and graph (Bag-Of-Node) similarity:
//
//	F(Tq, Tc) = (1-β)·F_BOW + β·F_BON        (Equation 3 of the paper)
//
// The overlap of two embeddings induces relationship paths that explain WHY
// a result is related to the query.
//
// Basic usage:
//
//	g, articles := corpus-of-your-choice
//	e := newslink.New(g, newslink.DefaultConfig())
//	for _, a := range articles {
//	    e.Add(newslink.Document{ID: a.ID, Title: a.Title, Text: a.Text})
//	}
//	e.Build()
//	results, _ := e.Search("Military conflicts between Pakistan and Taliban", 5)
//	exp, _ := e.Explain(query, results[0].ID, 3)
//
// Servers that need cancellation or per-request parameters use the
// request-scoped API instead:
//
//	results, err := e.SearchContext(ctx, newslink.Query{Text: q, K: 5, Beta: newslink.BetaOverride(1)})
//	exp, err := e.ExplainContext(ctx, q, results[0].ID, 3)
package newslink

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"newslink/internal/core"
	"newslink/internal/index"
	"newslink/internal/kg"
	"newslink/internal/nlp"
	"newslink/internal/obs"
	"newslink/internal/search"
	"newslink/internal/wal"
)

// EmbeddingModel selects the subgraph embedding model of the NE component.
type EmbeddingModel = core.Model

// Embedding models.
const (
	// LCAG is the paper's Lowest Common Ancestor Graph model.
	LCAG = core.ModelLCAG
	// TreeEmb is the tree-based Group-Steiner approximation baseline.
	TreeEmb = core.ModelTree
)

// Config parameterizes an Engine.
type Config struct {
	// Beta is the Equation 3 fusion weight: 0 = pure text (Lucene-style
	// BM25), 1 = pure subgraph embeddings. The paper's best setting is 0.2.
	Beta float64
	// Model is the subgraph embedding model (LCAG by default).
	Model EmbeddingModel
	// MaxDepth bounds label-to-root distances in the KG (0 = unbounded).
	MaxDepth float64
	// MaxExpansions bounds the per-segment traversal budget (0 = default).
	MaxExpansions int
	// PoolDepth is the per-index candidate pool for fusion (>= k; default 100).
	PoolDepth int
}

// DefaultConfig returns the paper's recommended configuration:
// NewsLink(0.2) with the LCAG model.
func DefaultConfig() Config {
	return Config{Beta: 0.2, Model: LCAG, MaxDepth: 6, PoolDepth: 100}
}

// Document is one news document to index.
type Document struct {
	ID    int
	Title string
	Text  string
	// Time is the document's event timestamp (Unix seconds, or any
	// monotone int64 the caller chooses; 0 = unknown). It is stored in the
	// per-segment time column, persisted with snapshots (v5), replayed
	// through the WAL, and compared against Query.After/Before temporal
	// filters as a plain value — an untimestamped document (Time 0) is
	// excluded by any After bound and kept by any Before bound.
	Time int64 `json:",omitempty"`
}

// Query is one search request for SearchContext. The zero values of the
// optional fields select the engine's Config, so Query{Text: q, K: 10} is a
// complete request.
type Query struct {
	// Text is the query text.
	Text string
	// K is the number of results to return (required, > 0).
	K int
	// PoolDepth overrides Config.PoolDepth for this request (0 = engine
	// default). The effective pool is never smaller than K and never larger
	// than the corpus.
	PoolDepth int
	// Beta overrides Config.Beta for this request (nil = engine default).
	// Use BetaOverride to build the pointer inline.
	Beta *float64
	// After and Before bound results to documents whose Time lies in the
	// inclusive range [After, Before]; 0 leaves the corresponding side
	// unbounded. Document.Time is compared as a plain value, so
	// untimestamped documents (Time 0) fail any After bound.
	After  int64
	Before int64
	// Entities restricts results to documents whose subgraph embedding
	// contains, for every listed entity label, at least one KG node that
	// label resolves to (must-match facets, conjunctive across labels). A
	// label that resolves to no KG node matches nothing.
	Entities []string
}

// filtered reports whether the request carries any document filter.
func (q Query) filtered() bool {
	return q.After != 0 || q.Before != 0 || len(q.Entities) > 0
}

// BetaOverride returns a per-request β override for Query.Beta.
func BetaOverride(v float64) *float64 { return &v }

// Result is one search hit.
type Result struct {
	ID    int // the Document.ID supplied at Add time
	Title string
	Score float64 // fused Equation 3 score, max-normalized into (0,1]
	// Snippet is the document sentence that best matches the query (empty
	// when the document shares no query terms).
	Snippet string
}

// Degradation reasons reported in SearchResponse.DegradedReason and
// counted by the newslink_search_degraded_total{reason} metric.
const (
	// DegradedBONError: the BON retrieval stage returned an error.
	DegradedBONError = "bon_error"
	// DegradedBONTimeout: the BON retrieval stage exceeded its stage
	// deadline (SetBONTimeout).
	DegradedBONTimeout = "bon_timeout"
)

// SearchResponse is the full outcome of one search request: the ranked
// results plus the degradation status of the fused pipeline.
//
// Equation 3 fuses two independently useful rankings, and the text (BOW)
// side carries no graph dependency — so when the subgraph (BON) side
// fails or is too slow, the engine serves the BOW-only ranking instead of
// failing the request, and reports it here. A degraded response ranks
// exactly like a pure-text (β = 0) query of the same text.
type SearchResponse struct {
	Results []Result
	// Degraded reports that the BON stage failed or timed out and Results
	// carry BOW-only ranking.
	Degraded bool
	// DegradedReason is DegradedBONError or DegradedBONTimeout when
	// Degraded, empty otherwise.
	DegradedReason string
}

// Path is one relationship path presented as evidence: Nodes holds the
// entity labels along the path and Relations the relation name of each hop
// (len(Relations) == len(Nodes)-1). Rendered is a human-readable form like
// "Sanders -[candidate in]-> US presidential election 2016 <-[candidate
// in]- Clinton".
type Path struct {
	Nodes     []string
	Relations []string
	Rendered  string
}

// Explanation is the intuitive evidence for one query/result pair.
type Explanation struct {
	// SharedEntities are labels of KG nodes present in both the query's and
	// the result's subgraph embeddings (the overlap of Figure 1), including
	// induced entities that appear in neither text.
	SharedEntities []string
	// Paths are relationship paths linking query entities to result
	// entities through the overlap (Tables II and VI).
	Paths []Path
}

// Engine indexes a corpus and serves NewsLink searches. It is safe for
// concurrent use: Search, Explain and ExplainDOT are lock-free readers —
// they load the atomically-published segment set and work against that
// immutable view for the whole request — while Add, AddAll, Build,
// Refresh, Delete, Update and Compact serialize on a writer mutex, so
// writes of any kind interleave freely with in-flight queries and a long
// query never blocks indexing.
type Engine struct {
	cfg  Config
	opts engineOptions

	// gs is the atomically-published graph-side state: the knowledge graph
	// with its NLP pipeline and embedder. Queries load it once per request
	// and work against that immutable view; SwapGraph publishes a fresh one
	// and purges the embedding caches.
	gs atomic.Pointer[graphState]

	// set is the published, immutable segment set (segment.go); nil until
	// Build. Readers load it atomically; writers rebuild and swap it under
	// mu.
	set atomic.Pointer[segmentSet]
	// pending counts documents in the open (un-searchable) segment, read
	// lock-free by acquire to decide whether a search must refresh first.
	pending atomic.Int64

	// walMu orders durability: it is taken strictly before mu, and every
	// write path holds it while assigning its write-ahead-log record and
	// its queue slot (or applying directly), so log order, queue order and
	// apply order are one total order. It also guards wal/walClosed and
	// the pipeline's admission state. Nil-WAL engines never contend on it
	// beyond the uncontended lock word.
	walMu     sync.Mutex
	wal       *wal.Log
	walClosed bool
	// ingest is the armed async pipeline (WithIngestQueue), nil otherwise;
	// published after Build/Load and read lock-free by the write APIs.
	ingest atomic.Pointer[ingestPipeline]

	// mu serializes writers and guards the open-segment accumulation state
	// below. The NLP pipeline, embedder and searcher above are stateless
	// after construction and need no lock.
	mu       sync.Mutex
	pendDocs []Document
	pendEmbs []*core.DocEmbedding // aligned with pendDocs; nil if unembeddable
	pendPos  map[int]int          // Document.ID -> position in pendDocs
	textB    *index.Builder
	nodeB    *index.Builder

	queries *queryCache
	embeds  *embedCache
	hot     *kg.HotLabels

	// metrics is the engine's observability registry; met caches the
	// pre-registered handles the pipeline updates. Both are created in New
	// and immutable afterwards, so no lock guards them.
	metrics *obs.Registry
	met     engineMetrics

	// bonTimeout is the per-request BON stage deadline in nanoseconds
	// (0 = none), read lock-free by searches and settable at any time.
	bonTimeout atomic.Int64
}

// SetBONTimeout bounds the BON (subgraph) retrieval stage of every fused
// search: past d the stage is cancelled and the request degrades to
// BOW-only ranking (SearchResponse.Degraded, reason DegradedBONTimeout)
// instead of blocking on a slow graph side. Zero removes the bound. Safe
// to call at any time, including while searches are in flight.
func (e *Engine) SetBONTimeout(d time.Duration) { e.bonTimeout.Store(int64(d)) }

// graphState bundles the knowledge graph with the components derived from
// it — the NLP pipeline (entity recognition against the graph's label
// index) and the subgraph embedder (with its pooled traversal states and
// per-group cache). It is immutable once published; SwapGraph replaces the
// whole bundle atomically, so a request that loaded one graphState keeps a
// consistent graph view for its entire lifetime.
type graphState struct {
	g        *kg.Graph
	pipe     *nlp.Pipeline
	embedder *core.Embedder
}

// New returns an Engine over the knowledge graph g. Options configure the
// engine beyond the base Config; because Config is itself an Option, both
// New(g, cfg) and New(g, cfg, WithEmbedCache(256), ...) work, and New(g)
// selects DefaultConfig.
func New(g *kg.Graph, opts ...Option) *Engine {
	o := defaultEngineOptions()
	for _, op := range opts {
		op.apply(&o)
	}
	cfg := o.cfg
	if cfg.PoolDepth <= 0 {
		cfg.PoolDepth = 100
	}
	registry := obs.NewRegistry()
	met := newEngineMetrics(registry)
	e := &Engine{
		cfg:     cfg,
		opts:    o,
		pendPos: make(map[int]int),
		textB:   index.NewBuilder(),
		nodeB:   index.NewBuilder(),
		queries: newQueryCache(o.queryCacheSize, met.cacheHits, met.cacheMisses),
		embeds:  newEmbedCache(o.embedCacheSize, met.embedCacheHits, met.embedCacheMisses),
		hot:     kg.NewHotLabels(o.hotLabelCap),
		metrics: registry,
		met:     met,
	}
	e.gs.Store(e.newGraphState(g))
	e.bonTimeout.Store(int64(o.bonTimeout))
	return e
}

// newGraphState derives the graph-side components from g under the
// engine's configuration.
func (e *Engine) newGraphState(g *kg.Graph) *graphState {
	return &graphState{
		g:    g,
		pipe: nlp.NewPipeline(g.Index()),
		embedder: core.NewEmbedder(g, core.Options{
			Model:          e.cfg.Model,
			MaxDepth:       e.cfg.MaxDepth,
			MaxExpansions:  e.cfg.MaxExpansions,
			EmbedWorkers:   e.opts.embedWorkers,
			GroupCacheSize: e.opts.groupCacheSize,
		}),
	}
}

// Graph returns the underlying knowledge graph.
func (e *Engine) Graph() *kg.Graph { return e.gs.Load().g }

// SwapGraph atomically replaces the knowledge graph with an updated
// snapshot — a re-weighted or extended export of the same entity universe.
// Every embedding cache derived from the old graph dies with it: the
// text-keyed query cache, the entity-set embedding cache and the
// embedder's per-group cache (the new embedder starts cold), so no query
// can ever be served a subgraph of a graph that is no longer published.
//
// Document embeddings indexed in sealed segments are NOT recomputed; they
// keep describing the graph they were built against. Swapping in a graph
// whose node IDs are incompatible with the indexed corpus calls for
// re-indexing (or persist.Load of a matching snapshot) instead.
func (e *Engine) SwapGraph(g *kg.Graph) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gs.Store(e.newGraphState(g))
	e.queries.purge()
	e.embeds.purge()
}

// HotLabels returns the k most frequently embedded entity labels of the
// query stream (Space-Saving estimates; see kg.HotLabels). It identifies
// the entities whose label → distance work the embedder's group cache is
// amortizing. k <= 0 returns every tracked label.
func (e *Engine) HotLabels(k int) []kg.LabelCount { return e.hot.Top(k) }

// NumDocs returns the number of live documents: everything added (sealed
// or still pending) minus tombstoned deletes.
func (e *Engine) NumDocs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.pendDocs)
	if s := e.set.Load(); s != nil {
		n += s.numLive()
	}
	return n
}

// NumSegments returns the number of sealed segments currently serving
// searches (0 before Build). Refresh appends one; the tiered merge policy
// and Compact shrink it.
func (e *Engine) NumSegments() int {
	if s := e.set.Load(); s != nil {
		return len(s.segs)
	}
	return 0
}

// NumDeletedDocs returns the number of tombstoned documents still held in
// segments (they stop counting once a merge rewrites their segment).
func (e *Engine) NumDeletedDocs() int {
	if s := e.set.Load(); s != nil {
		return s.deleted
	}
	return 0
}

// Add processes and indexes one document: NLP (Section IV), subgraph
// embedding (Section V) and both inverted indexes (Section VI). Documents
// whose entity groups yield no subgraph embedding are still text-indexed
// (their BON vector is empty). A document ID that was already added is
// rejected with ErrDuplicateID.
//
// Add also works after Build: late documents accumulate in an open segment
// that is sealed and attached (Lucene-style multi-segment reading) by the
// next Search or an explicit Refresh. Add is safe to call concurrently with
// searches and other Adds.
func (e *Engine) Add(doc Document) error {
	// While the ingest pipeline is armed, every write routes through it —
	// one total order with the WAL — and waits for its apply result, so
	// the documented synchronous semantics (ErrDuplicateID, ...) hold.
	if p := e.ingest.Load(); p != nil {
		return p.submit(walOpAdd, doc, true)
	}
	// Analysis touches only immutable state; run it before taking the lock
	// so concurrent Adds embed in parallel and searches are not blocked.
	emb, terms := e.analyze(doc.Text)
	e.walMu.Lock()
	defer e.walMu.Unlock()
	if err := e.logSyncLocked(walOpAdd, doc); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.addLocked(doc, emb, terms)
}

// addLocked appends one analyzed document to the open segment. A document
// ID is a duplicate when it is pending or live; a tombstoned ID may be
// re-added (that is what Update does). Callers hold e.mu.
func (e *Engine) addLocked(doc Document, emb *core.DocEmbedding, terms []string) error {
	if _, dup := e.pendPos[doc.ID]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateID, doc.ID)
	}
	s := e.set.Load()
	if s != nil {
		if _, dup := s.docPos[doc.ID]; dup {
			return fmt.Errorf("%w: %d", ErrDuplicateID, doc.ID)
		}
	}
	e.ensureSegment()
	e.pendPos[doc.ID] = len(e.pendDocs)
	e.pendDocs = append(e.pendDocs, doc)
	e.pendEmbs = append(e.pendEmbs, emb)
	e.textB.Add(terms)
	e.nodeB.AddWeighted(nodeWeights(emb))
	live := 0
	if s != nil {
		e.pending.Add(1)
		live = s.numLive()
	}
	e.met.docs.Set(int64(live + len(e.pendDocs)))
	return nil
}

// ensureSegment opens a fresh accumulation segment after the previous one
// was sealed. Callers hold e.mu.
func (e *Engine) ensureSegment() {
	if e.textB == nil {
		e.textB = index.NewBuilder()
		e.nodeB = index.NewBuilder()
		e.pendPos = make(map[int]int)
	}
}

// Refresh seals the open segment of post-Build additions so its documents
// become searchable. Search calls it automatically when pending documents
// exist; servers that want predictable query latency can call it explicitly
// after a batch of Adds instead. Safe for concurrent use; a no-op when
// nothing is pending.
func (e *Engine) Refresh() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refreshLocked()
}

// refreshLocked seals the open segment, appends it to the published set
// and lets the tiered merge policy compact qualifying runs. Callers hold
// e.mu.
func (e *Engine) refreshLocked() {
	s := e.set.Load()
	if s == nil || len(e.pendDocs) == 0 {
		return
	}
	seg := e.sealPendingLocked()
	segs := make([]*segment, 0, len(s.segs)+1)
	segs = append(segs, s.segs...)
	segs = append(segs, seg)
	e.publishLocked(e.applyMergePolicyLocked(segs))
	e.met.refreshes.Inc()
}

// sealPendingLocked turns the open segment's accumulated state into an
// immutable segment and resets the accumulators. Callers hold e.mu and
// have checked that pending documents exist.
func (e *Engine) sealPendingLocked() *segment {
	seg := &segment{
		docs:  e.pendDocs,
		embs:  e.pendEmbs,
		times: timesOf(e.pendDocs),
		text:  e.textB.Build(),
		node:  e.nodeB.Build(),
	}
	e.pendDocs, e.pendEmbs, e.pendPos = nil, nil, nil
	e.textB, e.nodeB = nil, nil
	e.pending.Store(0)
	return seg
}

// analyzeQuery is query analysis with two-tier LRU memoization; Search,
// Explain and ExplainDOT on the same query text share one NLP + NE pass.
// Tier one keys on the folded query text (lowercased, whitespace
// collapsed — "Trump  Putin" and "trump putin" are one entry); tier two,
// consulted on a text miss, keys on the canonicalized resolved entity set,
// so differently-phrased queries naming the same entities share one G*
// computation. It records the "analyze" stage span into the request trace
// (cache hits included: a hit still shows up in the breakdown, just with a
// near-zero duration). A non-nil error is ctx's: nothing is cached then.
func (e *Engine) analyzeQuery(ctx context.Context, text string) (*core.DocEmbedding, []string, error) {
	sp := obs.FromContext(ctx).Start(obs.StageAnalyze)
	key := kg.Fold(text)
	emb, terms, hit := e.queries.get(key)
	var err error
	if !hit {
		emb, terms, err = e.analyzeQueryMiss(ctx, text)
		if err == nil {
			e.queries.put(key, emb, terms)
		}
	}
	d := sp.End(obs.Bool("cache_hit", hit), obs.Int("terms", len(terms)))
	e.met.stageObserve(obs.StageAnalyze, d)
	return emb, terms, err
}

// analyzeQueryMiss runs the NLP component, then resolves the embedding
// through the entity-set cache, embedding the groups only on a full miss.
// The embed stage span and the newslink_embed_* counters record what
// happened either way.
func (e *Engine) analyzeQueryMiss(ctx context.Context, text string) (*core.DocEmbedding, []string, error) {
	gs := e.gs.Load()
	doc := gs.pipe.Process(text)
	var terms []string
	for _, s := range doc.Sentences {
		terms = append(terms, s.Terms...)
	}
	groups := nlp.MaximalSets(doc.EntityGroups())
	sp := obs.FromContext(ctx).Start(obs.StageEmbed)
	var stats core.EmbedStats
	var emb *core.DocEmbedding
	key := entitySetKey(gs.g, groups)
	hit := false
	if key != "" {
		emb, hit = e.embeds.get(key)
	}
	if hit {
		stats.Groups = len(groups)
		stats.CacheHit = true
	} else {
		var err error
		emb, stats, err = gs.embedder.EmbedGroupsContext(ctx, groups)
		if err != nil {
			sp.End(obs.Int("groups", len(groups)))
			return nil, nil, err
		}
		if key != "" {
			e.embeds.put(key, emb)
		}
	}
	d := sp.End(
		obs.Int("groups", stats.Groups),
		obs.Int("embedded", stats.Embedded),
		obs.Int("expansions", stats.Expansions),
		obs.Bool("cache_hit", stats.CacheHit),
		obs.Int("group_cache_hits", stats.GroupCacheHits),
	)
	e.met.stageObserve(obs.StageEmbed, d)
	e.met.embedObserve(stats)
	e.touchHotLabels(emb)
	return emb, terms, nil
}

// touchHotLabels feeds the resolved labels of a query embedding into the
// hot-label tracker.
func (e *Engine) touchHotLabels(emb *core.DocEmbedding) {
	if emb == nil {
		return
	}
	for _, sg := range emb.Subgraphs {
		for _, l := range sg.Labels {
			e.hot.Touch(l)
		}
	}
}

// analyze runs the NLP and NE components on a document text (the indexing
// path: no query-side caches, so paper-faithful per-document embedding
// cost measurements stay meaningful). It reads only immutable engine state
// and is safe to call without holding e.mu.
func (e *Engine) analyze(text string) (*core.DocEmbedding, []string) {
	gs := e.gs.Load()
	doc := gs.pipe.Process(text)
	var terms []string
	for _, s := range doc.Sentences {
		terms = append(terms, s.Terms...)
	}
	groups := nlp.MaximalSets(doc.EntityGroups())
	return gs.embedder.EmbedGroups(groups), terms
}

// entitySetKey canonicalizes a document's entity groups into the tier-two
// cache key: within each group the labels are folded, deduplicated and
// kept only when they resolve to a KG node, then sorted; group keys are
// themselves sorted (duplicates kept — two equal groups contribute twice
// to node counts). Queries that differ only in phrasing, label order, case
// or unresolvable mentions therefore share one key. Returns "" when no
// group has a resolvable label, which callers treat as "don't cache".
func entitySetKey(g *kg.Graph, groups [][]string) string {
	gkeys := make([]string, 0, len(groups))
	for _, grp := range groups {
		resolved := make([]string, 0, len(grp))
	labels:
		for _, l := range grp {
			key := kg.Fold(l)
			for _, r := range resolved {
				if r == key {
					continue labels
				}
			}
			if len(g.Lookup(key)) == 0 {
				continue
			}
			resolved = append(resolved, key)
		}
		if len(resolved) == 0 {
			continue // the group cannot embed; it contributes nothing
		}
		sort.Strings(resolved)
		gkeys = append(gkeys, strings.Join(resolved, "\x1f"))
	}
	if len(gkeys) == 0 {
		return ""
	}
	sort.Strings(gkeys)
	return strings.Join(gkeys, "\x1e")
}

// nodeWeights converts a document embedding into BON term weights.
func nodeWeights(emb *core.DocEmbedding) map[string]float32 {
	if emb == nil {
		return map[string]float32{}
	}
	out := make(map[string]float32, len(emb.Counts))
	for n, c := range emb.Counts {
		out[nodeTerm(n)] = float32(c)
	}
	return out
}

// nodeTerm names a KG node in the BON index vocabulary.
func nodeTerm(n kg.NodeID) string { return strconv.FormatUint(uint64(n), 36) }

// Build finalizes the inverted indexes. It must be called once, after the
// initial Add calls and before Search.
//
// With WithWAL configured, Build also opens the write-ahead log and
// replays any records a crashed previous run left there — the initial
// corpus plus the replayed writes become the starting state — and with
// WithIngestQueue it arms the async ingest pipeline. A corrupt log fails
// Build with ErrWALCorrupt rather than silently dropping acknowledged
// writes.
func (e *Engine) Build() error {
	e.walMu.Lock()
	defer e.walMu.Unlock()
	e.mu.Lock()
	if e.set.Load() != nil {
		e.mu.Unlock()
		return ErrAlreadyBuilt
	}
	if len(e.pendDocs) == 0 {
		e.mu.Unlock()
		return ErrNoDocuments
	}
	e.publishLocked([]*segment{e.sealPendingLocked()})
	e.mu.Unlock()
	return e.startDurabilityLocked()
}

// Delete tombstones a document by ID: it disappears from Search, Explain
// and ExplainDOT immediately but — Lucene deletion semantics — keeps
// counting in DF and average document length until a merge (the tiered
// policy on Refresh, or Compact) rewrites its segment. An unknown or
// already-deleted ID returns ErrUnknownDoc; an engine without Build
// returns ErrNotBuilt. Safe to call concurrently with searches — the
// tombstone is a copy-on-write swap of the published segment set.
func (e *Engine) Delete(id int) error {
	if p := e.ingest.Load(); p != nil {
		return p.submit(walOpDelete, Document{ID: id}, true)
	}
	e.walMu.Lock()
	defer e.walMu.Unlock()
	if e.set.Load() == nil {
		return ErrNotBuilt
	}
	if err := e.logSyncLocked(walOpDelete, Document{ID: id}); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.deleteLocked(id)
}

// deleteLocked tombstones one document by public ID (the body of Delete;
// also the replay and ingest-applier delete path). Callers hold e.mu.
func (e *Engine) deleteLocked(id int) error {
	s := e.set.Load()
	if s == nil {
		return ErrNotBuilt
	}
	if _, ok := e.pendPos[id]; ok {
		// The document is still in the open segment: seal it first so the
		// tombstone lands in a sealed segment's bitmap.
		e.refreshLocked()
		s = e.set.Load()
	}
	pos, ok := s.docPos[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownDoc, id)
	}
	e.deleteAtLocked(s, pos)
	return nil
}

// deleteAtLocked tombstones the document at a global position:
// copy-on-write of the owning segment's bitmap, then a republish of the
// set. Callers hold e.mu.
func (e *Engine) deleteAtLocked(s *segmentSet, pos int) {
	si, local := s.segIndexOf(pos)
	old := s.segs[si]
	var dead *index.Bitmap
	if old.dead != nil {
		dead = old.dead.Clone()
	} else {
		dead = index.NewBitmap(len(old.docs))
	}
	dead.Set(local)
	clone := &segment{docs: old.docs, embs: old.embs, times: old.times, text: old.text, node: old.node, dead: dead}
	// Tombstones are not part of the artifact identity (they live in
	// meta.json), so the clone keeps the memoized snapshot artifacts.
	clone.shareArtifact(old)
	segs := make([]*segment, len(s.segs))
	copy(segs, s.segs)
	segs[si] = clone
	e.publishLocked(segs)
}

// Update replaces the document with doc.ID by tombstoning the old version
// (when one exists — Update is an upsert, so a new ID is simply added) and
// indexing the new one. The replacement is atomic from a reader's point of
// view: any search sees either the old version or the new one, never both.
// Returns ErrNotBuilt before Build; use Add for initial corpus loading.
func (e *Engine) Update(doc Document) error {
	if p := e.ingest.Load(); p != nil {
		return p.submit(walOpUpsert, doc, true)
	}
	// Analysis reads only immutable state; do it before taking the lock.
	emb, terms := e.analyze(doc.Text)
	e.walMu.Lock()
	defer e.walMu.Unlock()
	if e.set.Load() == nil {
		return ErrNotBuilt
	}
	if err := e.logSyncLocked(walOpUpsert, doc); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.upsertLocked(doc, emb, terms)
}

// upsertLocked replaces (or adds) one analyzed document: tombstone any
// previous version, then add the new one — the body of Update and the
// replay/ingest-applier upsert path. Callers hold e.mu.
func (e *Engine) upsertLocked(doc Document, emb *core.DocEmbedding, terms []string) error {
	s := e.set.Load()
	if s == nil {
		return ErrNotBuilt
	}
	if _, ok := e.pendPos[doc.ID]; ok {
		// The previous version is still pending: seal it so the tombstone
		// machinery below covers it.
		e.refreshLocked()
	}
	if s = e.set.Load(); s != nil {
		if pos, ok := s.docPos[doc.ID]; ok {
			e.deleteAtLocked(s, pos)
		}
	}
	return e.addLocked(doc, emb, terms)
}

// Compact merges every segment into a single tombstone-free segment,
// rewriting postings without deleted documents so DF and average document
// length reflect the live corpus again and block-max pruning gets full
// blocks. A no-op on an already-compacted engine; ErrNotBuilt before
// Build. Searches proceed concurrently against the pre-compaction set
// until the swap.
func (e *Engine) Compact() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.set.Load() == nil {
		return ErrNotBuilt
	}
	e.refreshLocked()
	s := e.set.Load()
	if len(s.segs) == 0 || (len(s.segs) == 1 && s.deleted == 0) {
		return nil
	}
	merged := mergeRun(s.segs)
	e.met.segmentMerges.Inc()
	e.publishLocked([]*segment{merged})
	return nil
}

// Search returns the top k documents for the query text, ranked by
// Equation 3. It is SearchContext with a background context and the
// engine's configured parameters.
func (e *Engine) Search(query string, k int) ([]Result, error) {
	return e.SearchContext(context.Background(), Query{Text: query, K: k})
}

// acquire returns the published segment set for one read operation, or
// ErrNotBuilt. When pending documents exist it refreshes first, so a
// search always sees everything added before it started. The returned set
// is immutable: the read runs lock-free against it for its full duration.
func (e *Engine) acquire() (*segmentSet, error) {
	if e.pending.Load() > 0 {
		e.Refresh()
	}
	s := e.set.Load()
	if s == nil {
		return nil, ErrNotBuilt
	}
	return s, nil
}

// lookup resolves a public document ID to its global position within the
// set the caller holds. Tombstoned documents are absent from docPos, so a
// deleted ID is unknown — Explain can never serve evidence for a document
// Search would no longer return.
func (e *Engine) lookup(s *segmentSet, docID int) (int, error) {
	pos, ok := s.docPos[docID]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownDoc, docID)
	}
	return pos, nil
}

// SearchContext executes one search request, ranked by Equation 3 with the
// request's (or the engine's) β and candidate pool. BOW and BON retrieval
// run in parallel goroutines — they touch disjoint indexes. Cancellation of
// ctx stops postings traversal cooperatively and returns ctx.Err().
//
// When ctx carries a trace (obs.WithTrace), the pipeline records one span
// per stage — analyze, bow-retrieve, bon-retrieve, fuse, topk — with stage
// attributes (candidate counts, pruning statistics, cache hit/miss). Stage
// latencies additionally feed the engine's metric registry
// (Metrics) whether or not a trace is attached.
func (e *Engine) SearchContext(ctx context.Context, q Query) ([]Result, error) {
	resp, err := e.SearchContextFull(ctx, q)
	return resp.Results, err
}

// SearchContextFull is SearchContext returning the full response
// envelope, including the degradation status servers surface to clients.
// A BON-stage error or stage-deadline expiry (SetBONTimeout) in a fused
// request does not fail the request: the response carries the BOW-only
// ranking with Degraded set and the reason recorded, and the engine
// counts it in newslink_search_degraded_total{reason}. Pure-BON requests
// (β = 1) have no text ranking to fall back to and still fail hard.
func (e *Engine) SearchContextFull(ctx context.Context, q Query) (SearchResponse, error) {
	start := time.Now()
	resp, err := e.searchContext(ctx, q)
	e.met.searches.Inc()
	e.met.searchSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		e.met.searchErrors.Inc()
	}
	if resp.Degraded {
		if c := e.met.degraded[resp.DegradedReason]; c != nil {
			c.Inc()
		}
	}
	return resp, err
}

func (e *Engine) searchContext(ctx context.Context, q Query) (SearchResponse, error) {
	if err := ctx.Err(); err != nil {
		return SearchResponse{}, err
	}
	if q.K <= 0 {
		return SearchResponse{}, fmt.Errorf("%w: %d", ErrInvalidK, q.K)
	}
	beta := e.cfg.Beta
	if q.Beta != nil {
		beta = *q.Beta
	}
	if beta < 0 || beta > 1 {
		return SearchResponse{}, fmt.Errorf("%w: %g", ErrInvalidBeta, beta)
	}
	pool := q.PoolDepth
	if pool <= 0 {
		pool = e.cfg.PoolDepth
	}
	if pool < q.K {
		pool = q.K
	}
	snap, err := e.acquire()
	if err != nil {
		return SearchResponse{}, err
	}
	// A candidate pool can never usefully exceed the live corpus, so clamp
	// it to the set size; this keeps an attacker-sized PoolDepth from
	// driving pool-sized allocations regardless of the calling path.
	if n := snap.numLive(); pool > n {
		pool = n
	}
	qEmb, qTerms, err := e.analyzeQuery(ctx, q.Text)
	if err != nil {
		return SearchResponse{}, err
	}
	if err := ctx.Err(); err != nil {
		return SearchResponse{}, err
	}
	// Filter clauses compile once per request into a composed mask the
	// retrieval tier consults through the live-mask seam; an unfiltered
	// request compiles to nil and runs the untouched fast path.
	flt := e.compileFilter(e.Graph(), snap, q.After, q.Before, q.Entities, -1)
	ret, err := e.retrieve(ctx, snap, qEmb, qTerms, beta, pool, flt)
	if err != nil {
		return SearchResponse{}, err
	}
	tr := obs.FromContext(ctx)
	sp := tr.Start(obs.StageFuse)
	fuseBeta := beta
	if ret.degraded {
		// No BON ranking survived; fuse as pure text so a degraded reply
		// is score- and rank-identical to a β = 0 query and the documented
		// normalization (max score = 1) still holds.
		fuseBeta = 0
	}
	fused := search.Fuse(ret.bow, ret.bon, fuseBeta, q.K)
	d := sp.End(obs.Int("bow_candidates", len(ret.bow)), obs.Int("bon_candidates", len(ret.bon)), obs.Int("fused", len(fused)))
	e.met.stageObserve(obs.StageFuse, d)
	sp = tr.Start(obs.StageTopK)
	out := make([]Result, len(fused))
	snippets := nlp.NewTermSet(qTerms) // compiled once, probed by every result document
	for i, h := range fused {
		doc := snap.doc(int(h.Doc))
		out[i] = Result{
			ID:      doc.ID,
			Title:   doc.Title,
			Score:   h.Score,
			Snippet: snippets.BestSentence(doc.Text),
		}
	}
	d = sp.End(obs.Int("k", len(out)))
	e.met.stageObserve(obs.StageTopK, d)
	return SearchResponse{Results: out, Degraded: ret.degraded, DegradedReason: ret.reason}, nil
}

// Explain computes the intuitive evidence for why document docID is related
// to the query: the overlap of their subgraph embeddings and up to maxPaths
// relationship paths through it.
func (e *Engine) Explain(query string, docID int, maxPaths int) (Explanation, error) {
	return e.ExplainContext(context.Background(), query, docID, maxPaths)
}

// ExplainContext is Explain with cooperative cancellation: path enumeration
// between entity pairs stops and returns ctx.Err() once ctx is done.
//
// When ctx carries a trace (obs.WithTrace), the analyze and
// path-enumeration stages record spans with pair/path counts, mirroring
// SearchContext's stage breakdown.
func (e *Engine) ExplainContext(ctx context.Context, query string, docID int, maxPaths int) (Explanation, error) {
	return e.ExplainQueryContext(ctx, Query{Text: query}, docID, maxPaths)
}

// ExplainQueryContext is ExplainContext for a full Query: the explanation
// honours the request's filters (After/Before/Entities; K/PoolDepth/Beta
// are ignored — an explanation has no ranking), so a document the
// filtered Search would never return cannot be explained either — it
// returns ErrUnknownDoc, exactly like a tombstoned document.
func (e *Engine) ExplainQueryContext(ctx context.Context, q Query, docID int, maxPaths int) (Explanation, error) {
	exp, err := e.explainContext(ctx, q, docID, maxPaths)
	e.met.explains.Inc()
	if err != nil {
		e.met.explainErrors.Inc()
	}
	return exp, err
}

func (e *Engine) explainContext(ctx context.Context, q Query, docID int, maxPaths int) (Explanation, error) {
	if err := ctx.Err(); err != nil {
		return Explanation{}, err
	}
	snap, err := e.acquire()
	if err != nil {
		return Explanation{}, err
	}
	pos, err := e.lookup(snap, docID)
	if err != nil {
		return Explanation{}, err
	}
	if q.filtered() {
		if flt := e.compileFilter(e.Graph(), snap, q.After, q.Before, q.Entities, -1); flt != nil && !flt.Keep(index.DocID(pos)) {
			return Explanation{}, fmt.Errorf("%w: %d", ErrUnknownDoc, docID)
		}
	}
	qEmb, _, err := e.analyzeQuery(ctx, q.Text)
	if err != nil {
		return Explanation{}, err
	}
	dEmb := snap.embedding(pos)
	if qEmb == nil || dEmb == nil {
		return Explanation{}, nil
	}
	g := e.Graph()
	var exp Explanation
	for _, n := range qEmb.Overlap(dEmb) {
		exp.SharedEntities = append(exp.SharedEntities, g.Label(n))
	}
	sp := obs.FromContext(ctx).Start(obs.StagePaths)
	paths, pairs, err := e.enumeratePaths(ctx, qEmb, dEmb, maxPaths)
	d := sp.End(obs.Int("pairs", pairs), obs.Int("paths", len(paths)), obs.Int("shared_entities", len(exp.SharedEntities)))
	e.met.stageObserve(obs.StagePaths, d)
	if err != nil {
		return Explanation{}, err
	}
	exp.Paths = paths
	return exp, nil
}

// enumeratePaths links every query label to every result label until
// maxPaths relationship paths are collected, shortest pairs first. It
// returns the paths and the number of label pairs actually explored.
func (e *Engine) enumeratePaths(ctx context.Context, qEmb, dEmb *core.DocEmbedding, maxPaths int) ([]Path, int, error) {
	g := e.Graph()
	qLabels := embeddingLabels(qEmb)
	dLabels := embeddingLabels(dEmb)
	var out []Path
	pairs := 0
	seen := map[string]bool{}
	seenPair := map[[2]string]bool{}
	for _, ql := range qLabels {
		if err := ctx.Err(); err != nil {
			return nil, pairs, err
		}
		for _, dl := range dLabels {
			if len(out) >= maxPaths {
				return out, pairs, nil
			}
			if ql == dl {
				continue
			}
			// A label can occur in both embeddings; visit each unordered
			// pair once so mirror-image paths are not reported twice.
			pairKey := [2]string{ql, dl}
			if dl < ql {
				pairKey = [2]string{dl, ql}
			}
			if seenPair[pairKey] {
				continue
			}
			seenPair[pairKey] = true
			pairs++
			paths, err := core.CrossPathsContext(ctx, g, qEmb, dEmb, ql, dl, 1)
			if err != nil {
				return nil, pairs, err
			}
			for _, p := range paths {
				r := p.Render(g)
				if r != "" && !seen[r] {
					seen[r] = true
					out = append(out, e.makePath(p, r))
				}
				if len(out) >= maxPaths {
					return out, pairs, nil
				}
			}
		}
	}
	return out, pairs, nil
}

// makePath converts an internal relationship path into the public form.
func (e *Engine) makePath(p core.RelPath, rendered string) Path {
	out := Path{Rendered: rendered}
	if len(p.Hops) == 0 {
		return out
	}
	g := e.Graph()
	out.Nodes = append(out.Nodes, g.Label(p.Hops[0].From))
	for _, h := range p.Hops {
		out.Nodes = append(out.Nodes, g.Label(h.To))
		out.Relations = append(out.Relations, g.RelName(h.Rel))
	}
	return out
}

// ExplainDOT renders the query's and the document's subgraph embeddings as
// a Graphviz digraph in the style of the paper's Figure 1: one color per
// embedding, overlap nodes filled orange, subgraph roots boxed. Render with
// `dot -Tsvg`. An empty string is returned when either side has no
// embedding.
func (e *Engine) ExplainDOT(query string, docID int, title string) (string, error) {
	return e.ExplainDOTContext(context.Background(), query, docID, title)
}

// ExplainDOTContext is ExplainDOT with a cancellable context.
func (e *Engine) ExplainDOTContext(ctx context.Context, query string, docID int, title string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	snap, err := e.acquire()
	if err != nil {
		return "", err
	}
	pos, err := e.lookup(snap, docID)
	if err != nil {
		return "", err
	}
	qEmb, _, err := e.analyzeQuery(ctx, query)
	if err != nil {
		return "", err
	}
	dEmb := snap.embedding(pos)
	if qEmb == nil || dEmb == nil {
		return "", nil
	}
	return core.DOT(e.Graph(), title, qEmb, dEmb), nil
}

// embeddingLabels returns the distinct entity labels a document embedding
// was built from, in deterministic order.
func embeddingLabels(emb *core.DocEmbedding) []string {
	seen := map[string]bool{}
	var out []string
	for _, sg := range emb.Subgraphs {
		for _, l := range sg.Labels {
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	return out
}
