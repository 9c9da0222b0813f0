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
//	results, err := e.SearchContext(ctx, newslink.Query{Text: q, K: 5, PoolDepth: 200})
//	exp, err := e.ExplainContext(ctx, q, results[0].ID, 3)
package newslink

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"newslink/internal/core"
	"newslink/internal/index"
	"newslink/internal/kg"
	"newslink/internal/obs"
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
	// per-segment time column, persisted in each segment's documents
	// artifact, replayed through the WAL, and compared against
	// Query.After/Before temporal filters as a plain value — an
	// untimestamped document (Time 0) is excluded by any After bound and
	// kept by any Before bound.
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

// SearchResponse is the full outcome of one search (or related-news)
// request: the ranked results plus the degradation status of the pipeline.
//
// Equation 3 fuses two independently useful rankings, and the text (BOW)
// side carries no graph dependency — so when the subgraph (BON) side
// fails or is too slow, the engine serves the BOW-only ranking instead of
// failing the request, and reports it here. A degraded response ranks
// exactly like a pure-text (β = 0) query of the same text.
type SearchResponse struct {
	Results []Result
	// Degraded reports that the BON stage failed or timed out and Results
	// carry BOW-only ranking — or, on a cluster router's engine, that a
	// shard was unavailable and Results rank the live shards' documents.
	Degraded bool
	// DegradedReason is DegradedBONError or DegradedBONTimeout when
	// Degraded, or the router's "shard_unavailable"; empty otherwise.
	DegradedReason string
	// ShardsTotal and ShardsOK count the shards a cluster router's engine
	// scattered the traversals over and the ones that answered; zero
	// otherwise.
	ShardsTotal, ShardsOK int
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

	// gs is the graph-side state (querycache.go): the knowledge graph with
	// its NLP pipeline, embedder and query-analysis caches. It is set once,
	// in New: every document the engine holds was indexed under this one
	// graph, which is what lets Explain, ExplainDOT and Related re-derive a
	// document's embedding from its text.
	gs *graphState

	// set is the published, immutable segment set (segment.go); nil until
	// Build. Readers load it atomically; writers rebuild and swap it under
	// mu.
	set atomic.Pointer[segmentSet]
	// pending counts documents in the open (un-searchable) segment, read
	// lock-free by acquire to decide whether a search must refresh first.
	pending atomic.Int64

	// saveMu runs one Save at a time, from its capture through its WAL
	// prune; it is taken before walMu.
	saveMu sync.Mutex
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
	pendPos  map[int]int // Document.ID -> position in pendDocs
	textB    *index.Builder
	nodeB    *index.Builder

	// metrics is the engine's observability registry; met caches the
	// pre-registered handles the pipeline updates. Both are created in New
	// and immutable afterwards, so no lock guards them.
	metrics *obs.Registry
	met     engineMetrics

	// bonTimeout is the per-request BON stage deadline in nanoseconds
	// (0 = none), read lock-free by searches and settable at any time.
	bonTimeout atomic.Int64

	// loaded is the documents descriptors of the segments the engine's
	// loader restored, which Close releases — those of segments a merge
	// has since retired included, whose postings are garbage by then;
	// closed is set by Close, after which reads and writes fail with
	// ErrClosed.
	loaded []*os.File
	closed atomic.Bool

	// remote, when set (LoadRouted, before the engine is shared), runs
	// every request's postings traversals in place of the engine's own
	// indexes, and the engine refuses writes.
	remote func(context.Context, Traversal) (Retrieval, error)
}

// SetBONTimeout bounds the BON (subgraph) retrieval stage of every fused
// search: past d the stage is cancelled and the request degrades to
// BOW-only ranking (SearchResponse.Degraded, reason DegradedBONTimeout)
// instead of blocking on a slow graph side. Zero removes the bound. Safe
// to call at any time, including while searches are in flight.
func (e *Engine) SetBONTimeout(d time.Duration) { e.bonTimeout.Store(int64(d)) }

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
		metrics: registry,
		met:     met,
	}
	e.ensureSegment()
	e.gs = e.newGraphState(g)
	return e
}

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

// addLocked appends one analyzed document to the open segment: the
// document and the postings of its sorted terms, which analysis produced
// outside the lock. A document ID is a duplicate when it is pending or
// live; a tombstoned ID may be re-added (that is what Update does).
// Callers hold e.mu.
func (e *Engine) addLocked(doc Document, terms docTerms) error {
	if e.hasDocLocked(doc.ID) {
		return fmt.Errorf("%w: %d", ErrDuplicateID, doc.ID)
	}
	s := e.set.Load()
	e.ensureSegment()
	e.pendPos[doc.ID] = len(e.pendDocs)
	e.pendDocs = append(e.pendDocs, doc)
	e.textB.Add(terms.text)
	e.nodeB.Add(terms.node)
	live := 0
	if s != nil {
		e.pending.Add(1)
		live = s.numLive()
	}
	e.met.docs.Set(int64(live + len(e.pendDocs)))
	return nil
}

// hasDocLocked reports whether id is taken: pending in the open segment or
// live in the published set. Callers hold e.mu.
func (e *Engine) hasDocLocked(id int) bool {
	if _, ok := e.pendPos[id]; ok {
		return true
	}
	if s := e.set.Load(); s != nil {
		_, ok := s.position(id)
		return ok
	}
	return false
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
	// A closed engine merges nothing: its documents descriptors are closed.
	if s == nil || len(e.pendDocs) == 0 || e.closed.Load() {
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
	seg := newSegment(e.pendDocs, e.textB.Build(), e.nodeB.Build())
	e.pendDocs, e.pendPos = nil, nil
	e.textB, e.nodeB = nil, nil
	e.pending.Store(0)
	return seg
}

// analyze runs the NLP and NE components on a document text (the indexing
// path: no query-side caches, so paper-faithful per-document embedding
// cost measurements stay meaningful) and returns the document's terms in
// the sorted form the index builders take. It reads only immutable engine
// state and is safe to call without holding e.mu.
func (e *Engine) analyze(text string) docTerms {
	doc := e.gs.pipe.Process(text)
	var terms []string
	for _, s := range doc.Sentences {
		terms = append(terms, s.Terms...)
	}
	sort.Strings(terms)
	return docTerms{text: terms, node: e.gs.embedDoc(doc).NodeTerms()}
}

// docEmbedding re-derives the subgraph embedding of the document at a
// global position of s from its text, through the very path analyze
// indexed it by (nil for an unembeddable document). A stored document
// that does not read fails it.
func (e *Engine) docEmbedding(s *segmentSet, pos int) (*core.DocEmbedding, error) {
	d, err := s.doc(pos)
	if err != nil {
		return nil, err
	}
	return e.gs.embedDoc(e.gs.pipe.Process(d.Text)), nil
}

// Build finalizes the inverted indexes. It must be called once, after the
// initial Add calls and before Search.
//
// With WithWAL configured, Build also opens the write-ahead log and
// replays any records a crashed previous run left there — the initial
// corpus plus the replayed writes become the starting state — and with
// WithIngestQueue it arms the async ingest pipeline. A corrupt log fails
// Build with ErrWALCorrupt rather than silently dropping acknowledged
// writes. A Build that fails there closes the engine, whose replay stopped
// part-way: it serves nothing and every later call, Build included,
// returns ErrClosed. After Close, Build is ErrClosed.
func (e *Engine) Build() error {
	e.walMu.Lock()
	defer e.walMu.Unlock()
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return ErrClosed
	}
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
	err := e.startDurabilityLocked()
	if err != nil {
		e.closed.Store(true)
		e.set.Store(nil)
		for _, g := range []*obs.Gauge{e.met.segments, e.met.liveDocs, e.met.deletedDocs, e.met.docs} {
			g.Set(0)
		}
	}
	return err
}

// deleteLocked tombstones one document by public ID (applyLocked's delete
// case). Callers hold e.mu.
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
	pos, ok := s.position(id)
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
		dead = index.NewBitmap(old.numDocs())
	}
	dead.Set(local)
	clone := &segment{docs: old.docs, times: old.times, byID: old.byID, text: old.text, node: old.node, dead: dead}
	segs := make([]*segment, len(s.segs))
	copy(segs, s.segs)
	segs[si] = clone
	e.publishLocked(segs)
}

// upsertLocked replaces (or adds) one analyzed document: tombstone any
// previous version, then add the new one (applyLocked's upsert case).
// Callers hold e.mu.
func (e *Engine) upsertLocked(doc Document, terms docTerms) error {
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
		if pos, ok := s.position(doc.ID); ok {
			e.deleteAtLocked(s, pos)
		}
	}
	return e.addLocked(doc, terms)
}

// Compact merges every segment into a single tombstone-free segment,
// rewriting postings without deleted documents so DF and average document
// length reflect the live corpus again and block-max pruning gets full
// blocks. A no-op on an already-compacted engine; ErrNotBuilt before
// Build. Searches proceed concurrently against the pre-compaction set
// until the swap. If a segment cannot be read (a loaded segment's artifact
// truncated under the engine) the error is returned and the
// pre-compaction set stays published. After Close it is ErrClosed.
func (e *Engine) Compact() error {
	if e.remote != nil {
		return ErrReadOnly
	}
	if e.closed.Load() {
		return ErrClosed
	}
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
	merged, err := mergeRun(s.segs)
	if err != nil {
		return err
	}
	e.met.mergeObserve(merged)
	e.publishLocked([]*segment{merged})
	return nil
}

// acquire returns the published segment set for one read operation, or
// ErrNotBuilt, or ErrClosed once Close has run (its descriptors are closed).
// When pending documents exist it refreshes first, so a search always sees
// everything added before it started. The returned set is immutable: the
// read runs lock-free against it for its full duration.
func (e *Engine) acquire() (*segmentSet, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
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
// set the caller holds. Only live documents are found, so a deleted ID is
// unknown — Explain can never serve evidence for a document Search would
// no longer return.
func (e *Engine) lookup(s *segmentSet, docID int) (int, error) {
	pos, ok := s.position(docID)
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownDoc, docID)
	}
	return pos, nil
}
