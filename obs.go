package newslink

import (
	"newslink/internal/core"
	"time"

	"newslink/internal/obs"
	"newslink/internal/search"
)

// engineMetrics holds the pre-registered metric handles of one Engine.
// Registration happens once in New; the query pipeline only touches the
// atomic instruments, never the registry, so instrumentation adds no lock
// traffic to the read path (see DESIGN.md §8).
type engineMetrics struct {
	searches      *obs.Counter
	searchErrors  *obs.Counter
	explains      *obs.Counter
	explainErrors *obs.Counter
	relateds      *obs.Counter
	relatedErrors *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	// embed-path instrumentation: the entity-set cache tier plus the core
	// embedder's per-stage counts (groups, expansions, group-cache hits).
	embedCacheHits      *obs.Counter
	embedCacheMisses    *obs.Counter
	embedGroups         *obs.Counter
	embedExpansions     *obs.Counter
	embedGroupCacheHits *obs.Counter
	refreshes           *obs.Counter
	segmentMerges       *obs.Counter
	segmentMergedDocs   *obs.Counter
	segmentMergeErrors  *obs.Counter
	blocksDecoded       *obs.Counter
	blocksSkipped       *obs.Counter
	// ingest/WAL instrumentation: queue admissions and sheds, applied
	// writes, the live queue depth, and the durability cost of the log.
	ingestQueued    *obs.Counter
	ingestApplied   *obs.Counter
	ingestShed      *obs.Counter
	ingestDepth     *obs.Gauge
	walAppends      *obs.Counter
	walBytes        *obs.Counter
	walReplayed     *obs.Counter
	walFsyncSeconds *obs.Histogram
	docs            *obs.Gauge
	segments        *obs.Gauge
	liveDocs        *obs.Gauge
	deletedDocs     *obs.Gauge
	searchSeconds   *obs.Histogram
	// degraded counts searches served BOW-only, keyed by degradation
	// reason. Both reasons are pre-registered in New so the series appear
	// in expositions before the first incident; the map is read-only after
	// New, so concurrent searches read it lock-free.
	degraded map[string]*obs.Counter
	// stages maps the obs.Stage* names to their latency histograms. The map
	// is read-only after New, so concurrent searches read it lock-free.
	stages map[string]*obs.Histogram
}

func newEngineMetrics(r *obs.Registry) engineMetrics {
	stageHist := func(stage string) *obs.Histogram {
		return r.Histogram("newslink_query_stage_seconds",
			"Latency of one pipeline stage of a search or explain request.",
			nil, obs.L("stage", stage))
	}
	return engineMetrics{
		searches:      r.Counter("newslink_searches_total", "Search requests served (including failed ones)."),
		searchErrors:  r.Counter("newslink_search_errors_total", "Search requests that returned an error (including cancellations)."),
		explains:      r.Counter("newslink_explains_total", "Explain requests served (including failed ones)."),
		explainErrors: r.Counter("newslink_explain_errors_total", "Explain requests that returned an error (including cancellations)."),
		relateds:      r.Counter("newslink_relateds_total", "Related-news requests served (including failed ones)."),
		relatedErrors: r.Counter("newslink_related_errors_total", "Related-news requests that returned an error (including cancellations)."),
		cacheHits:     r.Counter("newslink_query_cache_hits_total", "Query analyses served from the LRU cache."),
		cacheMisses:   r.Counter("newslink_query_cache_misses_total", "Query analyses that ran the NLP + NE components."),
		embedCacheHits: r.Counter("newslink_embed_cache_hits_total",
			"Query embeddings served from the entity-set cache (tier two: text differed, entities matched)."),
		embedCacheMisses: r.Counter("newslink_embed_cache_misses_total",
			"Query embeddings that ran the G* search."),
		embedGroups: r.Counter("newslink_embed_groups_total",
			"Entity groups submitted for query-side subgraph embedding."),
		embedExpansions: r.Counter("newslink_embed_expansions_total",
			"Path enumerations of query-side entity groups that found a root, cached groups included (a rootless search adds nothing)."),
		embedGroupCacheHits: r.Counter("newslink_embed_group_cache_hits_total",
			"Entity groups served from the embedder's per-group subgraph cache."),
		refreshes:     r.Counter("newslink_refreshes_total", "Segment refreshes (explicit and search-triggered)."),
		segmentMerges: r.Counter("newslink_segment_merges_total", "Segment merges performed by the tiered policy and Compact."),
		segmentMergedDocs: r.Counter("newslink_segment_merged_docs_total",
			"Documents rewritten by segment merges (divided by documents applied: the merge write amplification)."),
		segmentMergeErrors: r.Counter("newslink_segment_merge_errors_total",
			"Policy merges left undone because a segment's postings could not be read (retried on the next refresh)."),
		blocksDecoded: r.Counter("newslink_blocks_decoded_total", "Postings blocks decoded by block-max retrieval."),
		blocksSkipped: r.Counter("newslink_blocks_skipped_total", "Postings blocks pruned undecoded by the block-max bound."),
		ingestQueued:  r.Counter("newslink_ingest_queued_total", "Writes admitted into the async ingest queue."),
		ingestApplied: r.Counter("newslink_ingest_applied_total", "Queued writes applied to the engine by the ingest applier."),
		ingestShed:    r.Counter("newslink_ingest_shed_total", "Ingests rejected with ErrIngestOverload because the ingest queue was full."),
		ingestDepth:   r.Gauge("newslink_ingest_queue_depth", "Writes currently queued and not yet applied."),
		walAppends:    r.Counter("newslink_wal_appends_total", "Records appended to the write-ahead log."),
		walBytes:      r.Counter("newslink_wal_appended_bytes_total", "Framed bytes appended to the write-ahead log."),
		walReplayed:   r.Counter("newslink_wal_replayed_total", "Records replayed from the write-ahead log at startup."),
		walFsyncSeconds: r.Histogram("newslink_wal_fsync_seconds",
			"Latency of one group-commit fsync of the write-ahead log.", nil),
		docs:          r.Gauge("newslink_docs", "Documents currently indexed (live plus pending, excluding tombstoned)."),
		segments:      r.Gauge("newslink_segments", "Sealed segments currently serving searches."),
		liveDocs:      r.Gauge("newslink_live_docs", "Live (searchable, non-tombstoned) documents in sealed segments."),
		deletedDocs:   r.Gauge("newslink_deleted_docs", "Tombstoned documents still held in segments (reclaimed by merges)."),
		searchSeconds: r.Histogram("newslink_search_seconds", "End-to-end latency of SearchContext.", nil),
		degraded: map[string]*obs.Counter{
			DegradedBONError: r.Counter("newslink_search_degraded_total",
				"Searches served with BOW-only ranking after a BON-stage failure, by reason.",
				obs.L("reason", DegradedBONError)),
			DegradedBONTimeout: r.Counter("newslink_search_degraded_total",
				"Searches served with BOW-only ranking after a BON-stage failure, by reason.",
				obs.L("reason", DegradedBONTimeout)),
		},
		stages: map[string]*obs.Histogram{
			obs.StageAnalyze: stageHist(obs.StageAnalyze),
			obs.StageEmbed:   stageHist(obs.StageEmbed),
			obs.StageBOW:     stageHist(obs.StageBOW),
			obs.StageBON:     stageHist(obs.StageBON),
			obs.StageFuse:    stageHist(obs.StageFuse),
			obs.StageTopK:    stageHist(obs.StageTopK),
			obs.StagePaths:   stageHist(obs.StagePaths),
		},
	}
}

// blocksObserve folds one retrieval's block-pruning counters into the
// engine-wide totals, making pruning effectiveness visible at /v1/metrics.
func (m *engineMetrics) blocksObserve(st search.RetrievalStats) {
	if st.BlocksDecoded > 0 {
		m.blocksDecoded.Add(int64(st.BlocksDecoded))
	}
	if st.BlocksSkipped > 0 {
		m.blocksSkipped.Add(int64(st.BlocksSkipped))
	}
}

// mergeObserve counts one completed merge and the documents it rewrote.
func (m *engineMetrics) mergeObserve(merged *segment) {
	m.segmentMerges.Inc()
	m.segmentMergedDocs.Add(int64(merged.numDocs()))
}

// embedObserve folds one query embedding's statistics into the engine-wide
// totals. The entity-set cache counts its own hits and misses; this covers
// the per-group counters a cache hit never generates.
func (m *engineMetrics) embedObserve(st core.EmbedStats) {
	if st.Groups > 0 {
		m.embedGroups.Add(int64(st.Groups))
	}
	if st.Expansions > 0 {
		m.embedExpansions.Add(int64(st.Expansions))
	}
	if st.GroupCacheHits > 0 {
		m.embedGroupCacheHits.Add(int64(st.GroupCacheHits))
	}
}

// stageObserve records one stage duration into its latency histogram.
func (m *engineMetrics) stageObserve(stage string, d time.Duration) {
	if h := m.stages[stage]; h != nil {
		h.Observe(d.Seconds())
	}
}

// Metrics returns the engine's metric registry. The HTTP layer serves it at
// /v1/metrics (JSON) and /v1/metrics/prom (Prometheus text format); servers
// embedding the engine directly can register their own metrics into the
// same registry.
func (e *Engine) Metrics() *obs.Registry { return e.metrics }
