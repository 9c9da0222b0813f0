package newslink

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"newslink/internal/corpus"
	"newslink/internal/kg"
)

// TestSaveLoadRoundTrip: a loaded engine searches and explains as the one
// that saved it, and takes further documents.
func TestSaveLoadRoundTrip(t *testing.T) {
	runHistory(t, "addall 0-7; build; save; search q=5; search q=4 k=5; explain 2 q=5; add 8; search q=4")
}

// TestSaveConcurrentWithAdd exercises the seal-and-capture critical section
// of Save: with concurrent Adds in flight, every snapshot written must be
// internally consistent (docs == indexed == embeddings), so each one Loads
// cleanly and every captured document is searchable. A Save that seals and
// captures in separate steps lets an interleaved Add into the captured docs
// but not the serialized indexes, and Load rejects the snapshot.
func TestSaveConcurrentWithAdd(t *testing.T) {
	g, _ := corpus.Sample()
	e := sampleEngine(t, DefaultConfig())
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for id := 1000; ; id++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Add(Document{ID: id, Title: "late", Text: "A late bulletin about Lahore."}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		dir := t.TempDir()
		if err := e.Save(dir); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(dir, g)
		if err != nil {
			t.Fatalf("snapshot %d written during concurrent Adds: %v", i, err)
		}
		if _, err := loaded.Search("late bulletin about Lahore", 3); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
}

func TestSaveBeforeBuildFails(t *testing.T) {
	runHistory(t, "add 0; save; build; save")
}

func TestLoadRejectsWrongGraph(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	other := kg.Generate(kg.DefaultConfig(1)).Graph
	if _, err := Load(dir, other); err == nil {
		t.Fatal("Load with a different graph must fail")
	}
}

// TestLoadRejectsReweightedGraph: a snapshot binds to its graph's columns,
// not only to its counts. A graph with as many nodes, edges and relations
// but one edge re-weighted, or one node relabelled, is refused by every
// loader and by a shard worker's LoadSegments — Explain and Related would
// otherwise re-derive embeddings under a graph the documents were not
// indexed under — while the same graph read again loads.
func TestLoadRejectsReweightedGraph(t *testing.T) {
	sample, arts := corpus.Sample()
	var tsv bytes.Buffer
	if err := kg.Write(&tsv, sample); err != nil {
		t.Fatal(err)
	}
	// read parses the sample graph's dump with the first line of the given
	// kind rewritten by edit (nil: unchanged).
	read := func(kind string, edit func(fields []string)) *kg.Graph {
		t.Helper()
		lines := strings.Split(tsv.String(), "\n")
		for i, l := range lines {
			if edit != nil && strings.HasPrefix(l, kind+"\t") {
				f := strings.Split(l, "\t")
				edit(f)
				lines[i] = strings.Join(f, "\t")
				break
			}
		}
		g, err := kg.Read(strings.NewReader(strings.Join(lines, "\n")))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	e := New(read("", nil), DefaultConfig())
	for _, a := range arts {
		if err := e.Add(Document{ID: a.ID, Title: a.Title, Text: a.Text}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaders := map[string]func(g *kg.Graph) error{
		"Load":       func(g *kg.Graph) error { return closed(Load(dir, g)) },
		"LoadRouted": func(g *kg.Graph) error { return closed(LoadRouted(dir, g, nil)) },
		"LoadSegments": func(g *kg.Graph) error {
			shard, err := LoadSegments(dir, g, m.Graph, m.Segments, m.Checksums, nil)
			if shard != nil {
				shard.Close()
			}
			return err
		},
	}
	for name, load := range loaders {
		if err := load(read("", nil)); err != nil {
			t.Fatalf("%s under the same graph read again: %v", name, err)
		}
	}
	for change, g := range map[string]*kg.Graph{
		"re-weighted": read("E", func(f []string) { f[4] += "5" }),
		"relabelled":  read("N", func(f []string) { f[3] += " II" }),
	} {
		if g.NumNodes() != sample.NumNodes() || g.NumEdges() != sample.NumEdges() || g.NumRels() != sample.NumRels() {
			t.Fatalf("%s graph: the counts changed", change)
		}
		for name, load := range loaders {
			if err := load(g); err == nil || !strings.Contains(err.Error(), "knowledge graph mismatch") {
				t.Fatalf("%s under a %s graph: %v, want a graph mismatch", name, change, err)
			}
		}
	}
}

// closed closes the engine a loader returned, if any, and passes its
// error on.
func closed(e *Engine, err error) error {
	if e != nil {
		e.Close()
	}
	return err
}

func TestLoadRejectsCorruptSnapshot(t *testing.T) {
	g, _ := corpus.Sample()
	e := sampleEngine(t, DefaultConfig())
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Missing file (the per-segment node index).
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.node.idx"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no seg-*.node.idx artifact in snapshot (err=%v)", err)
	}
	if err := os.Remove(matches[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, g); err == nil {
		t.Fatal("missing index must fail")
	}
	// Corrupt meta.
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, g); err == nil {
		t.Fatal("corrupt meta must fail")
	}
	// Nonexistent directory.
	if _, err := Load(filepath.Join(dir, "nope"), g); err == nil {
		t.Fatal("missing snapshot must fail")
	}
}

func TestLoadRejectsVersionSkew(t *testing.T) {
	g, _ := corpus.Sample()
	e := sampleEngine(t, DefaultConfig())
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(meta, &m); err != nil {
		t.Fatal(err)
	}
	m["version"] = json.RawMessage("99")
	if meta, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	if e, err := Load(dir, g); !errors.Is(err, ErrSnapshotVersion) || !strings.Contains(err.Error(), "version 99,") || e != nil {
		t.Fatalf("future version: %v, want ErrSnapshotVersion naming version 99", err)
	}
}

// TestLoadOnDisk: an engine Load serves from its snapshot's mapped files
// answers and explains as the engine that saved it, and re-saves the
// snapshot byte for byte.
func TestLoadOnDisk(t *testing.T) {
	runHistory(t, "addall 0-7; build; save; search q=4; search q=5 k=5; explain 2 q=5; save")
}

// TestSnapshotRoundTripsDocumentBytes: titles and texts come back from a
// snapshot byte for byte — invalid UTF-8, NUL and multi-kilobyte text
// included — through every loader, as they already do through the WAL. A
// reloaded engine, and so every cluster worker, returns exactly the title
// and snippet bytes the engine that saved them returned.
func TestSnapshotRoundTripsDocumentBytes(t *testing.T) {
	g, _ := corpus.Sample()
	e := sampleEngine(t, DefaultConfig())
	for _, d := range []Document{
		{ID: 9501, Title: "Caf\xe9 bombing in Lahore", Text: "The Taliban claimed the Caf\xe9 attack in Lahore. Witnesses fled.", Time: 1600000000},
		{ID: 9502, Title: "NUL\x00title", Text: "Pakistan\x00 and the Taliban met in Upper Dir.\x00", Time: -5},
		{ID: 9503, Title: "Long dispatch", Text: strings.Repeat("Sanders spoke about Clinton and the FBI emails in Iowa. ", 200)},
		{ID: 9504},
		{ID: 9505, Title: "\xff\xfe", Text: "\xc3\x28 Taliban in Lahore \xed\xa0\x80 surrogate halves."},
	} {
		if err := e.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	e.Refresh()
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	want, err := e.acquire()
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Of the documents, a shard worker reads the time column alone.
	shard, err := LoadSegments(dir, g, m.Graph, m.Segments, m.Checksums, nil)
	if err != nil || !reflect.DeepEqual(shard.set.times, want.times) {
		t.Fatalf("LoadSegments: times %v (%v), want %v", shard.set.times, err, want.times)
	}
	defer shard.Close()
	for name, load := range map[string]func() (*Engine, error){
		"Load": func() (*Engine, error) { return Load(dir, g) },
	} {
		loaded, err := load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for pos := 0; pos < want.numDocs; pos++ {
			wd, _ := want.doc(pos)
			if got, err := loaded.DocAt(pos); err != nil || !reflect.DeepEqual(got, wd) {
				t.Fatalf("%s: document at %d is %#v (%v), want %#v", name, pos, got, err, wd)
			}
		}
		for _, q := range []string{"Taliban bombing in Lahore", "Caf\xe9 attack", "Sanders Clinton FBI emails", "Pakistan Upper Dir"} {
			a, err := e.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			b, err := loaded.Search(q, 10)
			if err != nil || !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: %q answers %#v (%v), want %#v", name, q, b, err, a)
			}
		}
		loaded.Close()
	}
}

// TestStoredFieldsAgreeAcrossLoaders: every engine holds its documents on
// the heap when built or merged, and in the snapshot's mapped file when
// restored by Load or LoadRouted (the cluster router's engine). Over a
// three-segment snapshot with tombstones, the loaded and routed engines
// answer every filtered search with its snippets, and the related news,
// explanation and DOT rendering of every third document and of a
// tombstoned one, as the engine that saved it, and re-save it byte for
// byte — before and after Compact copies the live documents into one
// merged segment.
func TestStoredFieldsAgreeAcrossLoaders(t *testing.T) {
	reads := filterReads("search", "q=4 k=10")
	for id := 0; id < 64; id += 3 {
		reads += fmt.Sprintf("; related %d k=5; explain %d q=5", id, id)
	}
	reads += "; related 40; explain 40 q=4"
	if r := runHistory(t, filterHistory+"; save"+reads+"; compact; save"+reads); r.shared == 0 {
		t.Fatal("no explanation shared an entity; the comparison went unexercised")
	}
}

// TestRederivedEmbeddingMatchesPostings: Explain, ExplainDOT and Related
// re-derive a document's embedding from its text; the BON postings hold
// the embedding it was indexed with. Over an engine churned by adds, an
// update, deletes, a tier merge and Compact, every segment's indexes —
// built, loaded and routed — equal a build over its documents' analysis
// (the model's checkIndexes).
func TestRederivedEmbeddingMatchesPostings(t *testing.T) {
	h := "addall 0-39; build"
	for lo := 40; lo < 85; lo += 5 {
		h += fmt.Sprintf("; addall %d-%d", lo, lo+4)
	}
	h += "; update 3; delete 7, delete 45, delete 84; addall 85-99; save; related 3; compact; save; related 3"
	if r := runHistory(t, h); r.merges < 2 {
		t.Fatalf("the churn ran %d merges, want a tier merge and Compact", r.merges)
	}
}
