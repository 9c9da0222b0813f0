package newslink

import "errors"

// Sentinel errors returned by the Engine API. Callers should match them
// with errors.Is; the returned errors may wrap these with per-call detail
// (the offending k, document ID, ...).
var (
	// ErrNotBuilt is returned by read operations (Search, Explain,
	// ExplainDOT, Save) invoked before Build.
	ErrNotBuilt = errors.New("newslink: engine not built")
	// ErrAlreadyBuilt is returned by a second Build call.
	ErrAlreadyBuilt = errors.New("newslink: engine already built")
	// ErrNoDocuments is returned by Build when nothing was added.
	ErrNoDocuments = errors.New("newslink: no documents added")
	// ErrUnknownDoc is returned when a document ID was never added.
	ErrUnknownDoc = errors.New("newslink: unknown document")
	// ErrInvalidK is returned for non-positive result counts.
	ErrInvalidK = errors.New("newslink: invalid k")
	// ErrInvalidBeta is returned for per-request β outside [0, 1].
	ErrInvalidBeta = errors.New("newslink: invalid beta")
	// ErrDuplicateID is returned by Add for a document ID already indexed.
	ErrDuplicateID = errors.New("newslink: duplicate document id")
	// ErrSnapshotCorrupt is returned by the loaders (Load, LoadRouted,
	// LoadSegments) when a snapshot fails integrity verification: an
	// unparsable meta.json, a missing or truncated artifact, a checksum
	// mismatch, or internally inconsistent document counts. A corrupt
	// snapshot never yields a partial engine.
	ErrSnapshotCorrupt = errors.New("newslink: snapshot corrupt")
	// ErrSnapshotVersion is returned by the loaders when the snapshot
	// was written by an incompatible format version.
	ErrSnapshotVersion = errors.New("newslink: snapshot version mismatch")
	// ErrIngestOverload is returned by Ingest when the bounded ingest
	// queue (WithIngestQueue) is full; the synchronous writes never see
	// it. The write was not logged, not queued and will not be applied;
	// callers should retry after a backoff — the HTTP layer maps it to
	// 429 + Retry-After.
	ErrIngestOverload = errors.New("newslink: ingest queue full")
	// ErrWALCorrupt is returned by Build/Load when the write-ahead log
	// fails validation: a fully-written record with a checksum mismatch,
	// or impossible framing that a torn tail cannot explain. The log may
	// hold acknowledged writes, so the engine refuses to start rather
	// than silently dropping them; the operator decides whether to
	// restore a snapshot or discard the log.
	ErrWALCorrupt = errors.New("newslink: write-ahead log corrupt")
	// ErrClosed is returned by every read and write after Close released
	// the ingest pipeline, the write-ahead log and the snapshot's open
	// documents files.
	ErrClosed = errors.New("newslink: engine closed")
	// ErrReadOnly is returned by every write (and Compact) of a cluster
	// router's engine (LoadRouted): its shard workers serve a fixed
	// snapshot.
	ErrReadOnly = errors.New("newslink: engine is read-only")
	// ErrShardUnavailable is returned by a cluster router's engine when no
	// shard worker could run a request's traversals.
	ErrShardUnavailable = errors.New("newslink: no shard available")
)
