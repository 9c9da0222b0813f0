package newslink

import "time"

// Option configures an Engine at construction. Config itself is an Option
// (it replaces the whole base configuration), so both styles compose:
//
//	e := newslink.New(g, newslink.DefaultConfig())
//	e := newslink.New(g, cfg, newslink.WithEmbedCache(256), newslink.WithParallelEmbed(4))
//
// Knobs that must stay adjustable at runtime (the BON stage deadline) keep
// their atomic setters; the corresponding options only set the initial
// value.
type Option interface {
	apply(*engineOptions)
}

// engineOptions is the resolved construction-time configuration.
type engineOptions struct {
	cfg Config
	// queryCacheSize bounds the text-keyed query-analysis LRU.
	queryCacheSize int
	// embedCacheSize bounds the entity-set-keyed embedding LRU (tier two of
	// the query cache: different texts naming the same entities share one
	// embedding). <= 0 disables it.
	embedCacheSize int
	// groupCacheSize bounds the embedder's per-entity-group subgraph LRU —
	// the memoized label-set → subgraph (and thereby label → distance
	// vector) store for the hottest entity combinations. <= 0 disables it.
	groupCacheSize int
	// embedWorkers bounds the per-document entity-group embedding fan-out;
	// 0 selects GOMAXPROCS.
	embedWorkers int
	// hotLabelCap bounds the Space-Saving hot-label tracker.
	hotLabelCap int
	// bonTimeout is the initial BON stage deadline (0 = none).
	bonTimeout time.Duration
	// walDir, when non-empty, arms the write-ahead log there: every
	// post-Build write is logged and fsynced (group commit) before it is
	// acknowledged, and Build/Load replay the log so acknowledged writes
	// survive a crash between snapshots.
	walDir string
	// ingestQueue bounds the async ingest queue (Ingest); 0 disables the
	// pipeline and Ingest degrades to a synchronous upsert.
	ingestQueue int
	// ingestBatch bounds how many queued writes one applier pass analyzes,
	// indexes and seals as a single segment.
	ingestBatch int
}

func defaultEngineOptions() engineOptions {
	return engineOptions{
		cfg:            DefaultConfig(),
		queryCacheSize: 64,
		embedCacheSize: 128,
		groupCacheSize: 256,
		embedWorkers:   0, // GOMAXPROCS
		hotLabelCap:    256,
		ingestBatch:    256,
	}
}

// apply makes Config an Option: it replaces the engine's base
// configuration, so every pre-options call site — New(g, cfg) — keeps
// compiling and behaving as before.
func (c Config) apply(o *engineOptions) { o.cfg = c }

// optionFunc adapts a closure to the Option interface.
type optionFunc func(*engineOptions)

func (f optionFunc) apply(o *engineOptions) { f(o) }

// WithConfig replaces the base Config (equivalent to passing the Config
// directly; provided for call sites that prefer uniform option style).
func WithConfig(cfg Config) Option {
	return optionFunc(func(o *engineOptions) { o.cfg = cfg })
}

// WithQueryCache sets the capacity of the text-keyed query-analysis LRU
// (default 64). n <= 0 disables query memoization. Cached analyses are
// safely shared across requests with different After/Before/Entities
// clauses: filters apply at retrieval, after analysis and embedding.
func WithQueryCache(n int) Option {
	return optionFunc(func(o *engineOptions) { o.queryCacheSize = n })
}

// WithEmbedCache sets the capacity of the entity-set embedding cache
// (default 128): query embeddings are additionally memoized under their
// canonicalized resolved entity set, so differently-phrased queries naming
// the same entities share one G* computation. n <= 0 disables the tier.
func WithEmbedCache(n int) Option {
	return optionFunc(func(o *engineOptions) { o.embedCacheSize = n })
}

// WithGroupCache sets the capacity of the embedder's per-entity-group
// subgraph cache (default 256), which memoizes the label → distance-vector
// work of the hottest entity groups across both indexing and queries.
// n <= 0 disables it.
func WithGroupCache(n int) Option {
	return optionFunc(func(o *engineOptions) { o.groupCacheSize = n })
}

// WithParallelEmbed bounds how many entity groups of one document are
// embedded concurrently (default 0 = GOMAXPROCS; 1 forces sequential
// embedding). Results are deterministic at any setting.
func WithParallelEmbed(workers int) Option {
	return optionFunc(func(o *engineOptions) { o.embedWorkers = workers })
}

// WithHotLabels sets the capacity of the Space-Saving tracker behind
// HotLabels (default 256). n <= 0 keeps the default.
func WithHotLabels(n int) Option {
	return optionFunc(func(o *engineOptions) { o.hotLabelCap = n })
}

// WithBONTimeout sets the initial BON stage deadline, exactly as if
// SetBONTimeout(d) were called on the new engine; SetBONTimeout remains
// the runtime-safe way to adjust it afterwards.
func WithBONTimeout(d time.Duration) Option {
	return optionFunc(func(o *engineOptions) { o.bonTimeout = d })
}

// WithWAL arms the write-ahead log at dir. Build (and Load) open the log,
// replay any records a crash left behind, and from then on append every
// post-Build write — Add, Update, Delete, Ingest — before acknowledging
// it, with fsyncs batched across concurrent writers (group commit). Save
// rotates the log inside its capture critical section and prunes the old
// generation once the snapshot is durably installed, so dir never grows
// past one snapshot interval of writes. An empty dir disables the log.
func WithWAL(dir string) Option {
	return optionFunc(func(o *engineOptions) { o.walDir = dir })
}

// WithIngestQueue arms the async ingest pipeline with a queue of n
// pending writes. Ingest acknowledges a document once it is durably
// logged (when WithWAL is set) and queued; a single applier goroutine
// then batch-analyzes and indexes queued writes outside callers' critical
// paths. When the queue is full, writes are shed with ErrIngestOverload —
// the HTTP layer turns that into 429 + Retry-After. While the pipeline is
// armed, the synchronous write APIs route through the same queue (waiting
// for their result), so the log order and apply order stay identical.
// n <= 0 disables the pipeline.
func WithIngestQueue(n int) Option {
	return optionFunc(func(o *engineOptions) { o.ingestQueue = n })
}

// WithIngestBatch bounds how many queued writes the ingest applier folds
// into one micro-batch (default 256): each batch is analyzed in parallel,
// indexed under one lock acquisition and sealed as one segment, sized so
// the tiered merge policy (mergeFactor 8) keeps segment counts — and
// search fan-out — bounded under sustained ingest. n <= 0 keeps the
// default.
func WithIngestBatch(n int) Option {
	return optionFunc(func(o *engineOptions) {
		if n > 0 {
			o.ingestBatch = n
		}
	})
}
