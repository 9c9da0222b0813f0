package newslink

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"newslink/internal/core"
	"newslink/internal/corpus"
	"newslink/internal/index"
	"newslink/internal/kg"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	g, arts := corpus.Sample()
	e := sampleEngine(t, DefaultConfig())
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumDocs() != len(arts) {
		t.Fatalf("NumDocs = %d", loaded.NumDocs())
	}
	queries := []string{
		"Military conflicts between Pakistan and Taliban in Upper Dir",
		"Sanders said voters were tired of hearing about Clinton and the FBI emails.",
		"quarterly earnings beat expectations",
	}
	for _, q := range queries {
		a, err := e.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("loaded engine disagrees for %q:\n%v\nvs\n%v", q, a, b)
		}
	}
	// Explanations (which read the persisted embeddings) survive the trip.
	expA, err := e.Explain(queries[0], 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	expB, err := loaded.Explain(queries[0], 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(expA, expB) {
		t.Fatalf("explanations differ:\n%+v\nvs\n%+v", expA, expB)
	}
	// A loaded engine accepts further documents (late segment).
	if err := loaded.Add(Document{ID: 999, Title: "late", Text: "A late bulletin about Lahore."}); err != nil {
		t.Fatal(err)
	}
	late, err := loaded.Search("late bulletin", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(late) == 0 || late[0].ID != 999 {
		t.Fatalf("late doc not searchable: %+v", late)
	}
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
	g, _ := corpus.Sample()
	e := New(g, DefaultConfig())
	if err := e.Save(t.TempDir()); err == nil {
		t.Fatal("Save before Build must fail")
	}
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
// answers, explains and re-saves exactly as the engine that saved it.
func TestLoadOnDisk(t *testing.T) {
	g, _ := corpus.Sample()
	e := sampleEngine(t, DefaultConfig())
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	disk, err := Load(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	queries := []string{
		"Taliban bombing in Lahore and Peshawar",
		"Sanders said voters were tired of hearing about Clinton and the FBI emails.",
	}
	for _, q := range queries {
		a, err := e.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := disk.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("disk engine disagrees for %q:\n%v\nvs\n%v", q, a, b)
		}
	}
	// Explanations work too (re-derived from the mapped text).
	expA, err := e.Explain(queries[0], 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	expB, err := disk.Explain(queries[0], 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(expA, expB) {
		t.Fatal("explanations differ on disk engine")
	}
	// A loaded engine re-saves by writing its mapped artifacts out: saved
	// to a fresh directory (nothing to hard-link from), it writes a
	// snapshot byte-identical to the one the built engine wrote, meta.json
	// included.
	dir2 := t.TempDir()
	if err := disk.Save(dir2); err != nil {
		t.Fatal(err)
	}
	segFiles, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(segFiles) != 1+len(segmentSuffixes) {
		t.Fatalf("snapshot %s holds %v (%v), want meta.json and one segment's artifacts", dir, segFiles, err)
	}
	for _, path := range segFiles {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir2, filepath.Base(path)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs between the built engine's save and the loaded one's re-save", filepath.Base(path))
		}
	}
	reloaded, err := Load(dir2, g)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := reloaded.Search(queries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := e.Search(queries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("re-saved disk engine disagrees")
	}
	// Close is idempotent enough for the double-call pattern.
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	// Built engines have nothing mapped to release.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
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
			if got, err := loaded.DocAt(pos); err != nil || !reflect.DeepEqual(got, want.doc(pos)) {
				t.Fatalf("%s: document at %d is %#v (%v), want %#v", name, pos, got, err, want.doc(pos))
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
// three-segment snapshot with tombstones, a second engine built the same
// way (never saved) and both loaders answer DeepEqual to the engine
// that saved it — every document, every filtered search with its snippets,
// every live document's related news, explanation and DOT rendering, whose
// embeddings each engine re-derives from the text it holds — and every
// engine re-saves the snapshot byte for byte. After Compact, which copies
// the live documents into one merged segment, each engine that takes
// writes still agrees with a compacted built engine, down to the bytes of
// its snapshot.
func TestStoredFieldsAgreeAcrossLoaders(t *testing.T) {
	e, w, arts := filterFixture(t)
	g := w.Graph
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := LoadSegments(dir, g, m.Graph, m.Segments, m.Checksums, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Close()
	compacted, _, _ := filterFixture(t)
	if err := compacted.Compact(); err != nil {
		t.Fatal(err)
	}
	compactedDir := t.TempDir()
	if err := compacted.Save(compactedDir); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func() (*Engine, error){
		"Built": func() (*Engine, error) {
			built, _, _ := filterFixture(t)
			return built, nil
		},
		"Load":       func() (*Engine, error) { return Load(dir, g) },
		"LoadRouted": func() (*Engine, error) { return LoadRouted(dir, g, localTraverse(shard)) },
	} {
		got, err := load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkStores(t, name, got, name != "Built")
		checkAgree(t, name, got, e, w, arts)
		checkResave(t, name, got, dir)
		if name == "LoadRouted" {
			if err := got.Compact(); !errors.Is(err, ErrReadOnly) {
				t.Fatalf("%s: Compact: %v, want ErrReadOnly", name, err)
			}
		} else {
			if err := got.Compact(); err != nil {
				t.Fatalf("%s: Compact: %v", name, err)
			}
			checkStores(t, name+" compacted", got, false)
			checkAgree(t, name+" compacted", got, compacted, w, arts)
			checkResave(t, name+" compacted", got, compactedDir)
		}
		got.Close()
	}
}

// checkStores checks the one shape of a segment's documents: on the
// heap, or mapped alike.
func checkStores(t *testing.T, name string, e *Engine, mapped bool) {
	t.Helper()
	snap, err := e.acquire()
	if err != nil {
		t.Fatal(err)
	}
	for si, seg := range snap.segs {
		if seg.docs.mapped() != mapped || (seg.docs.docs == nil) != mapped {
			t.Fatalf("%s: segment %d holds mapped documents %v, want %v", name, si, seg.docs.mapped(), mapped)
		}
	}
}

// checkAgree asserts that got answers DeepEqual to want over the filter
// fixture: every document, every filtered search with its snippets, and
// the related news, explanation and DOT rendering of every third document
// and of a tombstoned one.
func checkAgree(t *testing.T, name string, got, want *Engine, w *kg.World, arts []corpus.Article) {
	t.Helper()
	ctx := context.Background()
	sameErr := func(a, b error) bool { return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error()) }
	ws, err := want.acquire()
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < ws.numDocs; pos++ {
		if doc, err := got.DocAt(pos); err != nil || !reflect.DeepEqual(doc, ws.doc(pos)) {
			t.Fatalf("%s: document at %d is %+v (%v), want %+v", name, pos, doc, err, ws.doc(pos))
		}
	}
	for cname, flt := range filterCases(w, arts) {
		for _, text := range filterQueries {
			q := flt
			q.Text, q.K = text, 10
			a, err := want.SearchContext(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if b, err := got.SearchContext(ctx, q); err != nil || !reflect.DeepEqual(b, a) {
				t.Fatalf("%s, %s %q: %v (%v), want %v", name, cname, text, b, err, a)
			}
		}
	}
	explained := 0
	for i, a := range arts {
		if i%3 != 0 && i != 40 { // 40 is tombstoned
			continue
		}
		rw, werr := want.Related(a.ID, 5)
		rg, gerr := got.Related(a.ID, 5)
		if !sameErr(gerr, werr) || !reflect.DeepEqual(rg, rw) {
			t.Fatalf("%s: related to %d is %v (%v), want %v (%v)", name, a.ID, rg, gerr, rw, werr)
		}
		q := arts[(i+1)%len(arts)].Title
		xw, werr := want.Explain(q, a.ID, 4)
		xg, gerr := got.Explain(q, a.ID, 4)
		if !sameErr(gerr, werr) || !reflect.DeepEqual(xg, xw) {
			t.Fatalf("%s: explanation of %d is %+v (%v), want %+v (%v)", name, a.ID, xg, gerr, xw, werr)
		}
		explained += len(xw.SharedEntities)
		dw, werr := want.ExplainDOT(q, a.ID, "t")
		dg, gerr := got.ExplainDOT(q, a.ID, "t")
		if !sameErr(gerr, werr) || dg != dw {
			t.Fatalf("%s: DOT of %d differs (%v, want %v)", name, a.ID, gerr, werr)
		}
	}
	if explained == 0 {
		t.Fatal("no explanation shared an entity; the comparison went unexercised")
	}
}

// checkResave asserts that e saves a snapshot identical, file for file,
// to the one in dir.
func checkResave(t *testing.T, name string, e *Engine, dir string) {
	t.Helper()
	resaved := t.TempDir()
	if err := e.Save(resaved); err != nil {
		t.Fatalf("%s: re-save: %v", name, err)
	}
	want, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadDir(resaved); err != nil || len(got) != len(want) {
		t.Fatalf("%s: re-saved %d files (%v), want %d", name, len(got), err, len(want))
	}
	for _, ent := range want {
		a, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if b, err := os.ReadFile(filepath.Join(resaved, ent.Name())); err != nil || !bytes.Equal(a, b) {
			t.Fatalf("%s: re-saved %s differs (%v)", name, ent.Name(), err)
		}
	}
}

// TestRederivedEmbeddingMatchesPostings: Explain, ExplainDOT and Related
// re-derive a document's embedding from its text; the BON postings hold
// the embedding it was indexed with. Over an engine churned by adds, an
// update, deletes, refreshes, a tier merge and Compact, every live
// document's re-derived node weights equal its postings — term → tf, read
// by walking its segment's node index — in the built engine and after
// Load and LoadRouted, before and after the compaction.
func TestRederivedEmbeddingMatchesPostings(t *testing.T) {
	w := kg.Generate(kg.DefaultConfig(19))
	arts := corpus.Generate(w, corpus.CNNLike(), 100, 23)
	docs := make([]Document, len(arts))
	for i, a := range arts {
		docs[i] = Document{ID: a.ID, Title: a.Title, Text: a.Text, Time: a.Time}
	}
	e := New(w.Graph, DefaultConfig())
	defer e.Close()
	if err := e.AddAll(docs[:40], 2); err != nil {
		t.Fatal(err)
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	for lo := 40; lo < 85; lo += 5 {
		if err := e.AddAll(docs[lo:lo+5], 2); err != nil {
			t.Fatal(err)
		}
		e.Refresh()
	}
	if e.met.segmentMerges.Value() == 0 {
		t.Fatal("the churn merged no tier")
	}
	updated := docs[3]
	updated.Text = docs[90].Text
	if err := e.Update(updated); err != nil {
		t.Fatal(err)
	}
	for _, d := range []Document{docs[7], docs[45], docs[84]} {
		if err := e.Delete(d.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddAll(docs[85:], 2); err != nil {
		t.Fatal(err)
	}
	check := func(stage string, e *Engine) {
		t.Helper()
		dir := t.TempDir()
		if err := e.Save(dir); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		shard, err := LoadSegments(dir, w.Graph, m.Graph, m.Segments, m.Checksums, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer shard.Close()
		checkRederivedMatchesPostings(t, stage+" built", e)
		for name, load := range map[string]func() (*Engine, error){
			"Load":       func() (*Engine, error) { return Load(dir, w.Graph) },
			"LoadRouted": func() (*Engine, error) { return LoadRouted(dir, w.Graph, localTraverse(shard)) },
		} {
			loaded, err := load()
			if err != nil {
				t.Fatalf("%s %s: %v", stage, name, err)
			}
			checkRederivedMatchesPostings(t, stage+" "+name, loaded)
			loaded.Close()
		}
	}
	check("churned", e)
	if n := e.NumSegments(); n < 2 || e.NumDeletedDocs() == 0 {
		t.Fatalf("churned engine has %d segments and %d tombstones, want several and some", n, e.NumDeletedDocs())
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted", e)
}

// checkRederivedMatchesPostings asserts that every live document of e
// re-derives to the node terms its segment's node index holds for it: the
// embedding's NodeTerms equal the postings unfolded, term t of TF k
// repeated k times.
func checkRederivedMatchesPostings(t *testing.T, name string, e *Engine) {
	t.Helper()
	snap, err := e.acquire()
	if err != nil {
		t.Fatal(err)
	}
	g := e.Graph()
	embedded := 0
	for si, seg := range snap.segs {
		postings := make([][]string, seg.numDocs())
		for n := range g.NumNodes() {
			term := core.NodeTerm(kg.NodeID(n))
			ps, err := index.Postings(seg.node, term)
			if err != nil {
				t.Fatalf("%s: segment %d, term %s: %v", name, si, term, err)
			}
			for _, p := range ps {
				for range int(p.TF) {
					postings[p.Doc] = append(postings[p.Doc], term)
				}
			}
		}
		for local := range seg.numDocs() {
			if seg.dead.Get(local) {
				continue
			}
			got := e.docEmbedding(snap, snap.bases[si]+local).NodeTerms()
			want := postings[local]
			sort.Strings(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: document %d re-derives to node terms %v, its postings are %v", name, seg.docs.id(local), got, want)
			}
			if len(got) > 0 {
				embedded++
			}
		}
	}
	if embedded == 0 {
		t.Fatalf("%s: no live document has an embedding to compare", name)
	}
}
