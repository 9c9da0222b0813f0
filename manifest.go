package newslink

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"newslink/internal/kg"
)

// Manifest access for the cluster tier.
//
// A scatter-gather router partitions a snapshot by segment: it reads
// the manifest (meta.json), assigns contiguous segment groups to shard
// workers, and each worker restores only its slice via LoadSegments.
// Because segments are content-addressed and immutable, a worker can
// fetch missing artifact files from any peer that holds them and verify
// them against the manifest checksums before loading — the same
// guarantees Load gives a whole snapshot, per segment.

// Manifest is the snapshot manifest (meta.json) of a compatible snapshot
// (version 4 or 5): the engine config, the graph fingerprint, the ordered
// segment list and per-artifact checksums.
type Manifest = snapshotMeta

// ManifestSegment describes one segment of a snapshot: its
// content-derived artifact ID, its documents in segment order, and the
// tombstone bitmap (index.Bitmap codec, base64; empty when nothing is
// deleted).
type ManifestSegment = segmentMeta

// GraphFingerprint is the structural fingerprint binding a snapshot to
// the knowledge graph it was built on.
type GraphFingerprint = graphPrint

// FingerprintGraph computes the structural fingerprint Load and
// LoadSegments verify against.
func FingerprintGraph(g *kg.Graph) GraphFingerprint { return fingerprint(g) }

// ReadManifest reads and validates the manifest of the snapshot at dir.
// A version mismatch returns ErrSnapshotVersion; artifact files are not
// verified (LoadSegments verifies the ones it loads).
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: parsing meta.json: %v", ErrSnapshotCorrupt, err)
	}
	if !snapshotCompatible(m.Version) {
		return nil, fmt.Errorf("%w: snapshot version %d, want %d..%d", ErrSnapshotVersion, m.Version, minSnapshotVersion, snapshotVersion)
	}
	return &m, nil
}

// SegmentFileNames returns the artifact file names a segment with the
// given content ID owns inside a snapshot directory.
func SegmentFileNames(id string) []string {
	out := make([]string, len(segmentSuffixes))
	for i, suffix := range segmentSuffixes {
		out[i] = segFileName(id, suffix)
	}
	return out
}

// LoadSegments restores an engine over a subset of a snapshot's segments
// — a shard worker's slice — reading the artifacts from dir fully into
// memory. g must match the snapshot's graph fingerprint print; every
// referenced artifact is checksum-verified against checksums before any
// state is built, with the same typed errors as Load. The restored
// engine serves reads only: no write-ahead log or ingest pipeline is
// armed, matching the immutability of the assignment (a new snapshot
// means a new assignment).
func LoadSegments(dir string, g *kg.Graph, print GraphFingerprint, cfg Config, segs []ManifestSegment, checksums map[string]string, opts ...Option) (*Engine, error) {
	return loadSegments(dir, g, print, cfg, segs, checksums, false, opts)
}
