package newslink

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"newslink/internal/core"
	"newslink/internal/corpus"
)

// TestAnalyzeQuery pins the analysis seam: the text terms and node-term
// weights must be exactly the inputs searchContext feeds BOW and BON
// retrieval.
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
		// Node terms are base-36 node IDs.
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
	if got := core.NodeTerm(0); got != "0" {
		t.Fatalf("NodeTerm(0) = %q", got)
	}
	if got := core.NodeTerm(36); got != "10" {
		t.Fatalf("NodeTerm(36) = %q, want base-36 encoding", got)
	}
}

// TestSourcesAndDocAt pins the per-layer seam: index sources expose the
// published posting lists, and DocAt materializes documents by the same
// positional coordinate search hits use.
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

// snapshotOnDisk saves the sample corpus's engine and returns the
// snapshot directory.
func snapshotOnDisk(t *testing.T) string {
	t.Helper()
	e := sampleEngine(t, DefaultConfig())
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestManifestRoundTrip pins the manifest surface the router partitions
// by: segments, checksums for every artifact name, and the graph
// fingerprint binding.
func TestManifestRoundTrip(t *testing.T) {
	dir := snapshotOnDisk(t)
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) == 0 {
		t.Fatal("manifest has no segments")
	}
	g, _ := corpus.Sample()
	if fingerprint(g) != m.Graph {
		t.Fatalf("graph fingerprint %+v does not match manifest %+v", fingerprint(g), m.Graph)
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
			got, err := checksumFile(filepath.Join(dir, name), make([]byte, copyBufSize))
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

// TestLoadSegmentsSubset pins the shard-restore path's failures (the
// model's sharded execution traverses what it restores): a wrong graph or
// a damaged artifact it reads is rejected with typed errors before any
// state is built, and a fetch hook repairs a damaged artifact only with
// the right bytes.
func TestLoadSegmentsSubset(t *testing.T) {
	dir := snapshotOnDisk(t)
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := corpus.Sample()

	// Graph mismatch: a different fingerprint is rejected up front.
	if _, err := LoadSegments(dir, g, GraphFingerprint{}, m.Segments, m.Checksums, nil); err == nil {
		t.Fatal("LoadSegments accepted a mismatched graph fingerprint")
	}

	// Missing checksum entry.
	if _, err := LoadSegments(dir, g, m.Graph, m.Segments, map[string]string{}, nil); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("missing checksums: %v, want ErrSnapshotCorrupt", err)
	}

	// A damaged artifact fails verification without a fetch hook. With
	// one, the hook is asked for exactly that artifact, and what it writes
	// is verified in turn: garbage is as corrupt as the damage it replaced,
	// the original bytes load, and the hook's own error fails the load.
	for _, name := range SegmentFileNames(m.Segments[0].ID) {
		path := filepath.Join(dir, name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		damage := func() {
			t.Helper()
			if err := os.WriteFile(path, append([]byte("x"), orig...), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		damage()
		_, err = LoadSegments(dir, g, m.Graph, m.Segments, m.Checksums, nil)
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("damaged %s: %v, want ErrSnapshotCorrupt", name, err)
		}
		var asked []string
		var mu sync.Mutex
		installing := func(data []byte) func(string) error {
			return func(got string) error {
				mu.Lock()
				asked = append(asked, got)
				mu.Unlock()
				return os.WriteFile(filepath.Join(dir, got), data, 0o644)
			}
		}
		if _, err := LoadSegments(dir, g, m.Graph, m.Segments, m.Checksums, installing([]byte("garbage"))); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("damaged %s fetched as garbage: %v, want ErrSnapshotCorrupt", name, err)
		}
		damage()
		repaired, err := LoadSegments(dir, g, m.Graph, m.Segments, m.Checksums, installing(orig))
		if err != nil {
			t.Fatalf("damaged %s with a fetch of the original: %v", name, err)
		}
		repaired.Close()
		if want := []string{name, name}; !reflect.DeepEqual(asked, want) {
			t.Fatalf("fetch asked for %v, want %v", asked, want)
		}
		damage()
		refused := errors.New("peer refused")
		if _, err := LoadSegments(dir, g, m.Graph, m.Segments, m.Checksums, func(string) error { return refused }); !errors.Is(err, refused) {
			t.Fatalf("damaged %s with a failing fetch: %v, want %v", name, err, refused)
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
