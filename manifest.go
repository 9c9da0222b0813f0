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
// the manifest (meta.json) and the ID column of every segment's documents
// artifact, assigns contiguous segment groups to shard workers, and each
// worker restores only its slice via LoadSegments. Because segments are
// content-addressed and immutable, a worker can fetch missing artifact
// files from any peer that holds them and verify them against the
// manifest checksums before loading — the same guarantees Load gives a
// whole snapshot, per segment.

// Manifest is the snapshot manifest (meta.json) of a version-6 snapshot:
// the engine config, the graph fingerprint, the ordered segment list and
// per-artifact checksums. It holds no document.
type Manifest = snapshotMeta

// ManifestSegment describes one segment of a snapshot: its
// content-derived artifact ID and the tombstone bitmap (index.Bitmap
// codec, base64; empty when nothing is deleted).
type ManifestSegment = segmentMeta

// GraphFingerprint is the structural fingerprint binding a snapshot to
// the knowledge graph it was built on.
type GraphFingerprint = graphPrint

// FingerprintGraph computes the structural fingerprint Load and
// LoadSegments verify against.
func FingerprintGraph(g *kg.Graph) GraphFingerprint { return fingerprint(g) }

// ReadManifest reads and validates the manifest of the version-6 snapshot
// at dir. Any other version returns ErrSnapshotVersion — including version
// 5, which Load still reads: its documents live in meta.json, and a Save
// with this build rewrites it as version 6. Artifact files are not
// verified (LoadSegments verifies the ones it loads).
func ReadManifest(dir string) (*Manifest, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if m.Version != snapshotVersion {
		return nil, fmt.Errorf("%w: snapshot version %d keeps its documents in meta.json; Load and Save it with this build to rewrite it as version %d",
			ErrSnapshotVersion, m.Version, snapshotVersion)
	}
	return m, nil
}

// readManifest reads the manifest of any snapshot version Load reads. For
// version 5 it also collects each segment's document list.
func readManifest(dir string) (*snapshotMeta, error) {
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, err
	}
	var m snapshotMeta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: parsing meta.json: %v", ErrSnapshotCorrupt, err)
	}
	if !snapshotCompatible(m.Version) {
		return nil, fmt.Errorf("%w: snapshot version %d, want %d..%d", ErrSnapshotVersion, m.Version, minSnapshotVersion, snapshotVersion)
	}
	if m.Version < snapshotVersion {
		var v5 struct {
			Segments []struct {
				Docs []Document `json:"docs"`
			} `json:"segments"`
		}
		if err := json.Unmarshal(data, &v5); err != nil {
			return nil, fmt.Errorf("%w: parsing meta.json: %v", ErrSnapshotCorrupt, err)
		}
		m.legacyDocs = make([][]Document, len(v5.Segments))
		for i, sm := range v5.Segments {
			m.legacyDocs[i] = sm.Docs
		}
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

// VerifyArtifact checks the artifact file name in dir against its recorded
// checksum. A file that is missing, unreadable, without a recorded checksum
// or different from it is ErrSnapshotCorrupt.
func VerifyArtifact(dir, name string, checksums map[string]string) error {
	return verifyArtifact(dir, name, checksums, make([]byte, copyBufSize))
}

// verifyArtifact is VerifyArtifact streaming the file through buf.
func verifyArtifact(dir, name string, checksums map[string]string, buf []byte) error {
	want, ok := checksums[name]
	if !ok {
		return fmt.Errorf("%w: no checksum for %s", ErrSnapshotCorrupt, name)
	}
	got, err := checksumFile(filepath.Join(dir, name), buf)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, name, err)
	}
	if got != want {
		return fmt.Errorf("%w: %s checksum %s, want %s", ErrSnapshotCorrupt, name, got, want)
	}
	return nil
}

// SegmentDocIDs checksum-verifies the documents artifact of the segment
// with content ID id in dir and returns the segment's document IDs in
// segment order — what a router partitions by. It reads the artifact's ID
// column, never a title or a text. A damaged artifact is
// ErrSnapshotCorrupt.
func SegmentDocIDs(dir, id string, checksums map[string]string) ([]int, error) {
	name := segFileName(id, docsSuffix)
	if err := VerifyArtifact(dir, name, checksums); err != nil {
		return nil, err
	}
	ids, err := readDocIDs(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, name, err)
	}
	return ids, nil
}

// LoadSegments restores an engine over a subset of a version-6 snapshot's
// segments — a shard worker's slice — reading the artifacts from dir fully
// into memory. g must match the snapshot's graph fingerprint print; every
// referenced artifact is checksum-verified against checksums before any
// state is built, with the same typed errors as Load. The restored
// engine serves reads only: no write-ahead log or ingest pipeline is
// armed, matching the immutability of the assignment (a new snapshot
// means a new assignment).
func LoadSegments(dir string, g *kg.Graph, print GraphFingerprint, cfg Config, segs []ManifestSegment, checksums map[string]string, opts ...Option) (*Engine, error) {
	m := &snapshotMeta{Version: snapshotVersion, Config: cfg, Graph: print, Segments: segs, Checksums: checksums}
	return loadSegments(dir, g, m, false, opts)
}
