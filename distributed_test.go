package newslink

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"newslink/internal/corpus"
)

// TestAnalyzeQuery pins the analysis seam the cluster router uses: the
// text terms and node-term weights must be exactly the inputs the
// single-process searchContext feeds BOW and BON retrieval.
func TestAnalyzeQuery(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	defer e.Close()

	terms, nodes, err := e.AnalyzeQuery(context.Background(), "Taliban bombing in Lahore")
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) == 0 {
		t.Fatal("no analyzed terms")
	}
	if len(nodes) == 0 {
		t.Fatal("query about known entities embedded to no nodes")
	}
	for term, w := range nodes {
		if w <= 0 {
			t.Fatalf("node term %q has non-positive weight %v", term, w)
		}
		// Node terms are base-36 node IDs: NodeTerm must round-trip them.
		if !strings.ContainsAny(term, "0123456789abcdefghijklmnopqrstuvwxyz") {
			t.Fatalf("node term %q is not base-36", term)
		}
	}

	// A query with no graph entities yields nil node weights (BON does
	// not apply) but still analyzes text terms.
	terms, nodes, err = e.AnalyzeQuery(context.Background(), "xyzzy plugh quux")
	if err != nil {
		t.Fatal(err)
	}
	if nodes != nil {
		t.Fatalf("entity-free query produced node weights %v", nodes)
	}
	if len(terms) == 0 {
		t.Fatal("entity-free query lost its text terms")
	}
}

func TestNodeTerm(t *testing.T) {
	if got := NodeTerm(0); got != "0" {
		t.Fatalf("NodeTerm(0) = %q", got)
	}
	if got := NodeTerm(36); got != "10" {
		t.Fatalf("NodeTerm(36) = %q, want base-36 encoding", got)
	}
}

// TestSourcesAndDocAt pins the worker-side seam: index sources expose
// the published posting lists, and DocAt materializes documents by the
// same positional coordinate search hits use.
func TestSourcesAndDocAt(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	defer e.Close()

	text, node, err := e.Sources()
	if err != nil {
		t.Fatal(err)
	}
	if text.NumDocs() == 0 || node.NumDocs() == 0 {
		t.Fatalf("published sources are empty: text=%d node=%d docs", text.NumDocs(), node.NumDocs())
	}

	_, arts := corpus.Sample()
	for pos := 0; pos < len(arts); pos++ {
		doc, err := e.DocAt(pos)
		if err != nil {
			t.Fatalf("DocAt(%d): %v", pos, err)
		}
		if doc.ID != arts[pos].ID {
			t.Fatalf("DocAt(%d).ID = %d, want %d", pos, doc.ID, arts[pos].ID)
		}
	}
	for _, pos := range []int{-1, len(arts), len(arts) + 100} {
		if _, err := e.DocAt(pos); !errors.Is(err, ErrUnknownDoc) {
			t.Fatalf("DocAt(%d) = %v, want ErrUnknownDoc", pos, err)
		}
	}
}

func TestSnippetExport(t *testing.T) {
	text := "The market fell sharply. The Taliban attacked Lahore today. Weather was mild."
	got := Snippet(text, []string{"taliban", "lahore"})
	if !strings.Contains(got, "Taliban") {
		t.Fatalf("Snippet picked %q, want the sentence with the query terms", got)
	}
}

// snapshotOnDisk builds a multi-segment snapshot of the sample corpus
// and returns its directory plus the engine's full search output for a
// reference query.
func snapshotOnDisk(t *testing.T) (dir string, want []Result) {
	t.Helper()
	e := sampleEngine(t, DefaultConfig())
	want, err := e.Search("Taliban bombing in Lahore", 5)
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, want
}

// TestManifestRoundTrip pins the manifest surface the router partitions
// by: segments, checksums for every artifact name, and the graph
// fingerprint binding.
func TestManifestRoundTrip(t *testing.T) {
	dir, _ := snapshotOnDisk(t)
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) == 0 {
		t.Fatal("manifest has no segments")
	}
	g, _ := corpus.Sample()
	if FingerprintGraph(g) != m.Graph {
		t.Fatalf("graph fingerprint %+v does not match manifest %+v", FingerprintGraph(g), m.Graph)
	}
	for _, sm := range m.Segments {
		names := SegmentFileNames(sm.ID)
		if len(names) == 0 {
			t.Fatalf("segment %s owns no artifact files", sm.ID)
		}
		for _, name := range names {
			want, ok := m.Checksums[name]
			if !ok {
				t.Fatalf("manifest has no checksum for %s", name)
			}
			got, err := ChecksumFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: checksum %s, want %s", name, got, want)
			}
		}
	}

	if _, err := ReadManifest(t.TempDir()); err == nil {
		t.Fatal("ReadManifest on an empty directory succeeded")
	}
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "meta.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(bad); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("corrupt manifest: %v, want ErrSnapshotCorrupt", err)
	}
}

// TestLoadSegmentsSubset pins the shard-restore path: loading all
// segments reproduces the full engine's results; loading none yields an
// empty but serviceable engine; a wrong graph or a damaged artifact is
// rejected with typed errors before any state is built.
func TestLoadSegmentsSubset(t *testing.T) {
	dir, want := snapshotOnDisk(t)
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := corpus.Sample()

	full, err := LoadSegments(dir, g, m.Graph, m.Config, m.Segments, m.Checksums)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	got, err := full.Search("Taliban bombing in Lahore", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("restored engine returned %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			t.Fatalf("result %d: got %+v, want %+v", i, got[i], want[i])
		}
	}

	// Graph mismatch: a different fingerprint is rejected up front.
	if _, err := LoadSegments(dir, g, GraphFingerprint{}, m.Config, m.Segments, m.Checksums); err == nil {
		t.Fatal("LoadSegments accepted a mismatched graph fingerprint")
	}

	// Missing checksum entry.
	if _, err := LoadSegments(dir, g, m.Graph, m.Config, m.Segments, map[string]string{}); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("missing checksums: %v, want ErrSnapshotCorrupt", err)
	}

	// A damaged artifact fails verification.
	name := SegmentFileNames(m.Segments[0].ID)[0]
	path := filepath.Join(dir, name)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append([]byte("x"), orig...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSegments(dir, g, m.Graph, m.Config, m.Segments, m.Checksums); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("damaged artifact: %v, want ErrSnapshotCorrupt", err)
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
}
