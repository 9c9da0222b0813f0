package newslink

// Option configures an Engine at construction. Config itself is an Option
// (it replaces the whole base configuration), so both styles compose:
//
//	e := newslink.New(g, newslink.DefaultConfig())
//	e := newslink.New(g, cfg, newslink.WithEmbedCache(256), newslink.WithParallelEmbed(4))
//
// The BON stage deadline is not an option: it must stay adjustable at
// runtime, so it has an atomic setter (SetBONTimeout) instead.
type Option interface {
	apply(*engineOptions)
}

// engineOptions is the resolved construction-time configuration.
type engineOptions struct {
	cfg Config
	// embedCacheSize bounds the entity-set-keyed embedding LRU (tier two of
	// the query cache: different texts naming the same entities share one
	// embedding). <= 0 disables it.
	embedCacheSize int
	// embedWorkers bounds the per-document entity-group embedding fan-out;
	// 0 selects GOMAXPROCS.
	embedWorkers int
	// walDir, when non-empty, arms the write-ahead log there: every
	// post-Build write is logged and fsynced (group commit) before it is
	// acknowledged, and Build/Load replay the log so acknowledged writes
	// survive a crash between snapshots.
	walDir string
	// ingestQueue bounds the async ingest queue (Ingest); 0 disables the
	// pipeline and Ingest degrades to a synchronous upsert.
	ingestQueue int
	// ingestBatch bounds how many writes are analyzed at once on either
	// write path: one applier pass of the ingest queue (indexed and sealed
	// as a single segment), or one window of a direct AddAll.
	ingestBatch int
}

func defaultEngineOptions() engineOptions {
	return engineOptions{
		cfg:            DefaultConfig(),
		embedCacheSize: 128,
		embedWorkers:   0, // GOMAXPROCS
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

// WithEmbedCache sets the capacity of the entity-set embedding cache
// (default 128): query embeddings are additionally memoized under their
// canonicalized resolved entity set, so differently-phrased queries naming
// the same entities share one G* computation. n <= 0 disables the tier.
func WithEmbedCache(n int) Option {
	return optionFunc(func(o *engineOptions) { o.embedCacheSize = n })
}

// WithParallelEmbed bounds how many entity groups of one document are
// embedded concurrently (default 0 = GOMAXPROCS; 1 forces sequential
// embedding). Results are deterministic at any setting.
func WithParallelEmbed(workers int) Option {
	return optionFunc(func(o *engineOptions) { o.embedWorkers = workers })
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

// WithIngestBatch bounds how many writes are analyzed at once (default
// 256), one bound for both write paths. The ingest applier folds up to n
// queued writes into one micro-batch: analyzed in parallel, indexed under
// one lock acquisition and sealed as one segment. Whatever the batch size,
// the tiered merge policy (geometric tiers, mergeFactor 8) keeps segment
// counts — and search fan-out — logarithmic in the corpus and rewrites
// each document about once per tier it climbs. Without the queue, AddAll
// indexes its batch in windows of n, applying one while analyzing the
// next, so a cold build holds at most two windows of analysis at once.
// n <= 0 keeps the default.
func WithIngestBatch(n int) Option {
	return optionFunc(func(o *engineOptions) {
		if n > 0 {
			o.ingestBatch = n
		}
	})
}
