package newslink

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"newslink/internal/index"
	"newslink/internal/kg"
)

// Manifest access for the cluster tier.
//
// A cluster router opens the whole snapshot (LoadRouted) and partitions
// its segments into contiguous groups, one per shard worker; each worker
// opens only its slice's postings via LoadSegments. Because segments are
// content-addressed and immutable, a worker can fetch a missing or damaged
// artifact file from the router and verify it against the manifest
// checksum before loading — the same guarantees Load gives a whole
// snapshot, per segment.

// Manifest is the snapshot manifest (meta.json) of a version-7 snapshot:
// the engine config, the graph fingerprint, the ordered segment list and
// per-artifact checksums. It holds no document.
type Manifest = snapshotMeta

// ManifestSegment describes one segment of a snapshot: its
// content-derived artifact ID and the tombstone bitmap (index.Bitmap
// codec, base64; empty when nothing is deleted).
type ManifestSegment = segmentMeta

// GraphFingerprint binds a snapshot to the knowledge graph it was built
// on: the graph's counts and the checksum of its columns.
type GraphFingerprint = graphPrint

// ReadManifest reads and validates the manifest of the version-7 snapshot
// at dir: what every loader reads first. Any other version returns
// ErrSnapshotVersion, naming it; such a snapshot is rebuilt from its
// corpus. Artifact files are not verified (the loaders verify the ones
// they read).
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, err
	}
	var m snapshotMeta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: parsing meta.json: %v", ErrSnapshotCorrupt, err)
	}
	if m.Version != snapshotVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, want %d; rebuild it from the corpus with this build",
			ErrSnapshotVersion, m.Version, snapshotVersion)
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

// verifyArtifact checks the artifact file name in dir against its recorded
// checksum, streaming the file through buf.
func verifyArtifact(dir, name string, checksums map[string]string, buf []byte) error {
	got, err := checksumFile(filepath.Join(dir, name), buf)
	return checkArtifact(name, checksums, got, err)
}

// readArtifact reads the artifact file name in dir whole and checks the
// bytes read against its recorded checksum: what it returns is what was
// verified.
func readArtifact(dir, name string, checksums map[string]string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err := checkArtifact(name, checksums, checksumString(crc32.Checksum(data, castagnoli)), err); err != nil {
		return nil, err
	}
	return data, nil
}

// checkArtifact compares the checksum got of artifact name, or the error
// reading it, with the recorded one. A file that is missing, unreadable,
// without a recorded checksum or different from it is ErrSnapshotCorrupt.
func checkArtifact(name string, checksums map[string]string, got string, err error) error {
	want, ok := checksums[name]
	if !ok {
		return fmt.Errorf("%w: no checksum for %s", ErrSnapshotCorrupt, name)
	}
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, name, err)
	}
	if got != want {
		return fmt.Errorf("%w: %s checksum %s, want %s", ErrSnapshotCorrupt, name, got, want)
	}
	return nil
}

// Shard is the postings of a slice of a snapshot's segments: what a cluster
// shard worker traverses for the router. Its segments are loaded as Load
// loads them; it reads their indexes, tombstones and time columns, all on
// the heap, never a document's text, which the router's engine serves. It
// holds the segments' documents descriptors until Close.
type Shard struct {
	set   *segmentSet
	files []*os.File
}

// LoadSegments opens the postings of a subset of a version-7 snapshot's
// segments — a shard worker's slice — from dir. g must match the snapshot's
// graph fingerprint print; every artifact it reads (the two indexes and the
// documents artifact of each segment) is checksum-verified against
// checksums before any state is built, with the same typed errors as Load.
// An artifact that is missing or fails verification is passed to fetch,
// when fetch is not nil: fetch installs the file named in dir (through a
// temporary file and a rename), and the file is then verified once more.
// fetch is called concurrently, one segment's artifacts per goroutine, and
// its error fails the load. Positions in the returned Shard's sources are
// local to the slice: the first document of segs[0] is position 0.
func LoadSegments(dir string, g *kg.Graph, print GraphFingerprint, segs []ManifestSegment, checksums map[string]string, fetch func(name string) error) (*Shard, error) {
	m := &snapshotMeta{Version: snapshotVersion, Graph: print, Segments: segs, Checksums: checksums}
	loaded, files, err := loadSegments(dir, g, m, fetch)
	if err != nil {
		return nil, err
	}
	return &Shard{set: newSegmentSet(nil, loaded), files: files}, nil
}

// Sources returns the shard's text and node index sources for one search,
// with the request's filter clauses compiled in exactly as
// Engine.FilteredSources compiles them: tombstoned documents, and those
// outside the inclusive [after, before] time range (0 = unbounded) or
// failing the entity facet (term sets, conjunctive across sets), are
// masked from traversal while the statistics stay the unfiltered slice's.
func (s *Shard) Sources(after, before int64, entities [][]string) (text, node index.Source, err error) {
	return s.set.filteredSources(after, before, entities)
}

// Close closes the shard's documents descriptors. Its sources, which read
// only heap state, stay usable: a traversal in flight may finish.
func (s *Shard) Close() error { return closeFiles(s.files) }
