package newslink

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"newslink/internal/index"
	"newslink/internal/kg"
	"newslink/internal/nlp"
	"newslink/internal/search"
)

// storedFixture saves filterFixture's engine — three segments, three
// tombstones — and returns it, the snapshot directory, the graph and a
// query per third article.
func storedFixture(t *testing.T) (*Engine, string, *kg.Graph, []string) {
	t.Helper()
	e, w, arts := filterFixture(t)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	var queries []string
	for i := 0; i < len(arts); i += 3 {
		queries = append(queries, arts[i].Title)
	}
	return e, dir, w.Graph, queries
}

// TestLoadersNeverMapDocuments: every loader — Load, LoadRouted and a
// shard worker's LoadSegments — maps no snapshot artifact and holds one
// descriptor on each segment's documents artifact and none on its
// indexes, also after requests have read every document; Close releases
// the descriptors.
func TestLoadersNeverMapDocuments(t *testing.T) {
	_, dir, g, queries := storedFixture(t)
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := len(m.Segments)
	held := func(what string, want int) {
		t.Helper()
		for _, suffix := range segmentSuffixes {
			wantFDs := 0
			if suffix == docsSuffix {
				wantFDs = want
			}
			if fds, maps := heldUnder(t, dir, "."+suffix); fds != wantFDs || maps != 0 {
				t.Fatalf("%s: %d descriptors and %d mappings on the %s artifacts, want %d and 0", what, fds, maps, suffix, wantFDs)
			}
		}
	}
	shard, err := LoadSegments(dir, g, m.Graph, m.Segments, m.Checksums, nil)
	if err != nil {
		t.Fatal(err)
	}
	held("LoadSegments", segs)
	routed, err := LoadRouted(dir, g, localTraverse(shard))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	held("LoadSegments, LoadRouted and Load", 3*segs)
	for _, e := range []*Engine{routed, loaded} {
		for pos := 0; pos < e.set.Load().numDocs; pos++ {
			if _, err := e.DocAt(pos); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			if _, err := e.Search(q, 10); err != nil {
				t.Fatal(err)
			}
		}
	}
	held("after reading every document", 3*segs)
	for _, c := range []interface{ Close() error }{routed, loaded, shard} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	held("closed", 0)
}

// storedAnswers is what the concurrent reader test asks an engine: the
// gathered result of every position, each document, and the search, related
// news and explanation of every query and every third live document.
type storedAnswers struct {
	gathered []Result
	docs     []Document
	searches [][]Result
	related  [][]Result
	explains []Explanation
}

func askStored(e *Engine, queries []string, ids []int) (storedAnswers, error) {
	snap, err := e.acquire()
	if err != nil {
		return storedAnswers{}, err
	}
	terms, _, err := e.AnalyzeQuery(context.Background(), queries[0])
	if err != nil {
		return storedAnswers{}, err
	}
	hits := make([]search.Hit, snap.numDocs)
	for pos := range hits {
		hits[pos] = search.Hit{Doc: index.DocID(pos), Score: float64(pos)}
	}
	var a storedAnswers
	if a.gathered, err = gather(snap, hits, nlp.NewTermSet(terms)); err != nil {
		return a, err
	}
	a.docs = make([]Document, snap.numDocs)
	for pos := range a.docs {
		if a.docs[pos], err = e.DocAt(pos); err != nil {
			return a, err
		}
	}
	for _, q := range queries {
		res, err := e.Search(q, 10)
		if err != nil {
			return a, err
		}
		a.searches = append(a.searches, res)
	}
	for i, id := range ids {
		res, err := e.Related(id, 5)
		if err != nil {
			return a, err
		}
		exp, err := e.Explain(queries[i%len(queries)], id, 2)
		if err != nil {
			return a, err
		}
		a.related, a.explains = append(a.related, res), append(a.explains, exp)
	}
	return a, nil
}

// TestConcurrentStoredReads: eight goroutines gather, read, search, relate
// and explain over one loaded engine at once, through the shared
// descriptors and the pooled read buffers, and each one's answers equal
// the built engine's that saved the snapshot (run it under -race).
func TestConcurrentStoredReads(t *testing.T) {
	built, dir, g, queries := storedFixture(t)
	var ids []int
	snap, err := built.acquire()
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < snap.numDocs; pos += 3 {
		if si, local := snap.segIndexOf(pos); !snap.segs[si].dead.Get(local) {
			ids = append(ids, snap.segs[si].docs.id(local))
		}
	}
	want, err := askStored(built, queries, ids)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := askStored(loaded, queries, ids)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("reader %d: the loaded engine answers differently (%v)", w, err)
			}
		}()
	}
	wg.Wait()
}
