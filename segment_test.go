package newslink

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"newslink/internal/corpus"
)

var lifecycleQueries = []string{
	"Military conflicts between Pakistan and Taliban in Upper Dir",
	"Sanders said voters were tired of hearing about Clinton and the FBI emails.",
	"Taliban bombing in Lahore and Peshawar",
	"quarterly earnings beat expectations",
}

func TestDeleteBasics(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	before := e.NumDocs()
	res, err := e.Search(lifecycleQueries[0], 3)
	if err != nil || len(res) == 0 {
		t.Fatalf("seed search: %v %v", res, err)
	}
	victim := res[0].ID
	if err := e.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if e.NumDocs() != before-1 {
		t.Fatalf("NumDocs = %d, want %d", e.NumDocs(), before-1)
	}
	if e.NumDeletedDocs() != 1 {
		t.Fatalf("NumDeletedDocs = %d, want 1", e.NumDeletedDocs())
	}
	after, err := e.Search(lifecycleQueries[0], e.NumDocs())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range after {
		if r.ID == victim {
			t.Fatal("deleted document still returned by Search")
		}
	}
	if _, err := e.Explain(lifecycleQueries[0], victim, 3); !errors.Is(err, ErrUnknownDoc) {
		t.Fatalf("Explain of deleted doc = %v, want ErrUnknownDoc", err)
	}
	// Deleting again, or deleting a never-added ID, is unknown.
	if err := e.Delete(victim); !errors.Is(err, ErrUnknownDoc) {
		t.Fatalf("double Delete = %v, want ErrUnknownDoc", err)
	}
	if err := e.Delete(987654); !errors.Is(err, ErrUnknownDoc) {
		t.Fatalf("Delete of unknown id = %v, want ErrUnknownDoc", err)
	}
	// A tombstoned ID is re-addable (that is what Update builds on).
	if err := e.Add(Document{ID: victim, Title: "reborn", Text: "A reborn bulletin about Lahore."}); err != nil {
		t.Fatalf("re-Add of tombstoned id: %v", err)
	}
	if e.NumDocs() != before {
		t.Fatalf("NumDocs after re-add = %d, want %d", e.NumDocs(), before)
	}
}

func TestDeletePendingDocument(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	if err := e.Add(Document{ID: 7001, Title: "late", Text: "A late bulletin about Lahore."}); err != nil {
		t.Fatal(err)
	}
	// The document is still in the open segment; Delete must seal it first
	// and then tombstone it.
	if err := e.Delete(7001); err != nil {
		t.Fatal(err)
	}
	res, err := e.Search("late bulletin about Lahore", e.NumDocs())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.ID == 7001 {
			t.Fatal("deleted pending document surfaced")
		}
	}
}

func TestWritesBeforeBuildFail(t *testing.T) {
	g, _ := corpus.Sample()
	e := New(g, DefaultConfig())
	if err := e.Delete(1); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("Delete before Build = %v", err)
	}
	if err := e.Update(Document{ID: 1, Text: "x"}); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("Update before Build = %v", err)
	}
	if err := e.Compact(); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("Compact before Build = %v", err)
	}
}

func TestUpdateReplacesDocument(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	before := e.NumDocs()
	res, err := e.Search(lifecycleQueries[1], 1)
	if err != nil || len(res) == 0 {
		t.Fatalf("seed search: %v %v", res, err)
	}
	id := res[0].ID
	if err := e.Update(Document{ID: id, Title: "corrected", Text: "A corrected wire story about volcanic eruptions in Iceland."}); err != nil {
		t.Fatal(err)
	}
	if e.NumDocs() != before {
		t.Fatalf("Update changed NumDocs: %d, want %d", e.NumDocs(), before)
	}
	got, err := e.Search("volcanic eruptions in Iceland", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].ID != id || got[0].Title != "corrected" {
		t.Fatalf("updated doc not found under new text: %+v", got)
	}
	// The old version must be gone: searching its distinctive old text at
	// full depth never returns the ID with the old title.
	old, err := e.Search(lifecycleQueries[1], e.NumDocs())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range old {
		if r.ID == id && r.Title != "corrected" {
			t.Fatal("stale version of updated doc still served")
		}
	}
	// Upsert semantics: a fresh ID is simply added.
	if err := e.Update(Document{ID: 8123, Title: "new", Text: "A brand new bulletin about Reykjavik."}); err != nil {
		t.Fatal(err)
	}
	if e.NumDocs() != before+1 {
		t.Fatalf("upsert of new id: NumDocs = %d, want %d", e.NumDocs(), before+1)
	}
}

func TestCompactMergesToSingleSegment(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	for i := 0; i < 3; i++ {
		if err := e.Add(Document{ID: 9100 + i, Title: "late", Text: fmt.Sprintf("Late bulletin %d about Lahore and Peshawar.", i)}); err != nil {
			t.Fatal(err)
		}
		e.Refresh()
	}
	if e.NumSegments() < 2 {
		t.Fatalf("expected multiple segments, got %d", e.NumSegments())
	}
	// Tombstone a document inside the (multi-document) initial segment, so
	// the tombstone stays resident until Compact reclaims it. (Deleting a
	// single-doc segment's only document would instead drop the whole
	// segment at publish time.)
	seed, err := e.Search(lifecycleQueries[1], 1)
	if err != nil || len(seed) == 0 {
		t.Fatalf("seed search: %v %v", seed, err)
	}
	if err := e.Delete(seed[0].ID); err != nil {
		t.Fatal(err)
	}
	if e.NumDeletedDocs() != 1 {
		t.Fatalf("NumDeletedDocs = %d", e.NumDeletedDocs())
	}
	want, err := e.Search(lifecycleQueries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	merges, mergedDocs := e.met.segmentMerges.Value(), e.met.segmentMergedDocs.Value()
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if e.NumSegments() != 1 {
		t.Fatalf("NumSegments after Compact = %d, want 1", e.NumSegments())
	}
	// One merge, rewriting every live document (the tombstoned one is
	// dropped, not rewritten).
	if n := e.met.segmentMerges.Value() - merges; n != 1 {
		t.Fatalf("Compact counted %d merges, want 1", n)
	}
	if n := e.met.segmentMergedDocs.Value() - mergedDocs; n != int64(e.NumDocs()) {
		t.Fatalf("newslink_segment_merged_docs_total rose by %d, want %d", n, e.NumDocs())
	}
	if e.NumDeletedDocs() != 0 {
		t.Fatalf("NumDeletedDocs after Compact = %d, want 0 (tombstones reclaimed)", e.NumDeletedDocs())
	}
	got, err := e.Search(lifecycleQueries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("Compact changed ranking:\n%v\nvs\n%v", got, want)
		}
	}
	// Compacting an already-compacted engine is a no-op.
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if e.NumSegments() != 1 {
		t.Fatalf("NumSegments = %d after idempotent Compact", e.NumSegments())
	}
}

// TestSegmentScheduleIdentity is the merge-identity property test of
// DESIGN.md §11: for random add/refresh/compact schedules WITHOUT deletes,
// search results must be identical — scores included — to an engine built
// in a single batch. Per-segment indexes serialize to the same bytes as a
// monolithic build (TestMergeIdentityNoDeletes), Multi statistics are
// exact per-doc folds, and block-max traversal visits terms in a
// deterministic order, so this holds bitwise.
func TestSegmentScheduleIdentity(t *testing.T) {
	g, arts := corpus.Sample()
	batch := New(g, DefaultConfig())
	for _, a := range arts {
		if err := batch.Add(Document{ID: a.ID, Title: a.Title, Text: a.Text}); err != nil {
			t.Fatal(err)
		}
	}
	if err := batch.Build(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		e := New(g, DefaultConfig())
		cut := 1 + rng.Intn(len(arts)-1)
		for _, a := range arts[:cut] {
			if err := e.Add(Document{ID: a.ID, Title: a.Title, Text: a.Text}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Build(); err != nil {
			t.Fatal(err)
		}
		for _, a := range arts[cut:] {
			if err := e.Add(Document{ID: a.ID, Title: a.Title, Text: a.Text}); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(3) == 0 {
				e.Refresh()
			}
		}
		check := func(stage string) {
			for _, q := range lifecycleQueries {
				want, err := batch.Search(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Search(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s (segments=%d): %q diverged\n%v\nvs\n%v",
						trial, stage, e.NumSegments(), q, got, want)
				}
			}
		}
		check("segmented")
		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
		if e.NumSegments() != 1 {
			t.Fatalf("NumSegments after Compact = %d", e.NumSegments())
		}
		check("compacted")
	}
}

// TestDeletedNeverReturned: under random delete schedules, a tombstoned
// document must never surface from Search or Explain — before or after
// compaction, and across a snapshot round trip.
func TestDeletedNeverReturned(t *testing.T) {
	g, arts := corpus.Sample()
	e := sampleEngine(t, DefaultConfig())
	rng := rand.New(rand.NewSource(17))
	deleted := map[int]bool{}
	for _, a := range arts {
		if rng.Intn(3) == 0 && len(deleted) < len(arts)-2 {
			if err := e.Delete(a.ID); err != nil {
				t.Fatal(err)
			}
			deleted[a.ID] = true
		}
	}
	if e.NumDeletedDocs() != len(deleted) {
		t.Fatalf("NumDeletedDocs = %d, want %d", e.NumDeletedDocs(), len(deleted))
	}
	assertHidden := func(stage string, eng *Engine) {
		t.Helper()
		for _, q := range lifecycleQueries {
			res, err := eng.Search(q, eng.NumDocs())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				if deleted[r.ID] {
					t.Fatalf("%s: deleted doc %d surfaced for %q", stage, r.ID, q)
				}
			}
		}
		for id := range deleted {
			if _, err := eng.Explain(lifecycleQueries[0], id, 2); !errors.Is(err, ErrUnknownDoc) {
				t.Fatalf("%s: Explain(deleted %d) = %v, want ErrUnknownDoc", stage, id, err)
			}
		}
	}
	assertHidden("tombstoned", e)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.NumDocs() != e.NumDocs() || loaded.NumDeletedDocs() != e.NumDeletedDocs() {
		t.Fatalf("round trip changed counts: %d/%d vs %d/%d",
			loaded.NumDocs(), loaded.NumDeletedDocs(), e.NumDocs(), e.NumDeletedDocs())
	}
	assertHidden("loaded", loaded)
	// Tombstoned search results must agree across built and loaded engines.
	for _, q := range lifecycleQueries {
		a, err := e.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("loaded engine diverged for %q:\n%v\nvs\n%v", q, a, b)
		}
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	assertHidden("compacted", e)
}

// TestIncrementalSaveReusesSegments: re-saving over an existing snapshot
// must hard-link unchanged segment artifacts instead of rewriting them
// (content-addressed reuse), including for segments whose only change is a
// new tombstone — those live in meta.json.
func TestIncrementalSaveReusesSegments(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	dir := filepath.Join(t.TempDir(), "snap")
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	// The segment's three artifacts: text.idx, node.idx, docs.bin.
	segFiles, err := filepath.Glob(filepath.Join(dir, "seg-*"))
	if err != nil || len(segFiles) != len(segmentSuffixes) {
		t.Fatalf("expected the artifacts of one segment, found %v", segFiles)
	}
	before := make([]os.FileInfo, len(segFiles))
	for i, path := range segFiles {
		if before[i], err = os.Stat(path); err != nil {
			t.Fatal(err)
		}
	}
	// A new open segment plus a tombstone in the old one: the old
	// segment's artifacts — documents included — must survive as hard
	// links of the same inodes.
	if err := e.Add(Document{ID: 9301, Title: "late", Text: "A late bulletin about Lahore."}); err != nil {
		t.Fatal(err)
	}
	e.Refresh()
	if err := e.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	for i, path := range segFiles {
		after, err := os.Stat(path)
		if err != nil {
			t.Fatalf("original segment artifact gone after incremental save: %v", err)
		}
		if !os.SameFile(before[i], after) {
			t.Fatalf("unchanged segment artifact %s was rewritten, not hard-linked", filepath.Base(path))
		}
	}
	all, err := filepath.Glob(filepath.Join(dir, "seg-*.text.idx"))
	if err != nil || len(all) != 2 {
		t.Fatalf("expected two segments after incremental save, found %v", all)
	}
	// And the incremental snapshot is fully valid.
	g, _ := corpus.Sample()
	loaded, err := Load(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumDocs() != e.NumDocs() || loaded.NumDeletedDocs() != 1 {
		t.Fatalf("incremental snapshot counts: %d/%d", loaded.NumDocs(), loaded.NumDeletedDocs())
	}
}

// TestChurnSegmentLifecycle drives the full segment lifecycle under
// concurrency: interleaved Add/Update/Delete/Refresh from a writer while
// searchers and a snapshotter run. Run under -race in CI (resilience job).
// Invariants: a delete is immediately invisible to the deleting goroutine,
// the tiered policy keeps the segment count bounded, bookkeeping matches
// the surviving corpus, and every snapshot written mid-churn loads.
func TestChurnSegmentLifecycle(t *testing.T) {
	g, arts := corpus.Sample()
	e := sampleEngine(t, DefaultConfig())
	live := map[int]bool{}
	for _, a := range arts {
		live[a.ID] = true
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				q := lifecycleQueries[(seed+n)%len(lifecycleQueries)]
				if _, err := e.Search(q, 5); err != nil {
					t.Errorf("concurrent search: %v", err)
					return
				}
				if _, err := e.Explain(q, arts[0].ID, 2); err != nil && !errors.Is(err, ErrUnknownDoc) {
					t.Errorf("concurrent explain: %v", err)
					return
				}
			}
		}(i)
	}
	snapDirs := []string{filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Save(snapDirs[n%2]); err != nil {
				t.Errorf("concurrent save: %v", err)
				return
			}
		}
	}()
	rng := rand.New(rand.NewSource(23))
	randLive := func() int {
		for id := range live {
			return id
		}
		return -1
	}
	nextID := 20000
	for op := 0; op < 200; op++ {
		switch rng.Intn(5) {
		case 0, 1:
			if err := e.Add(Document{ID: nextID, Title: "churn", Text: fmt.Sprintf("Churn bulletin %d about Lahore and Peshawar.", nextID)}); err != nil {
				t.Fatal(err)
			}
			live[nextID] = true
			nextID++
		case 2:
			if id := randLive(); id >= 0 && len(live) > 2 {
				if err := e.Delete(id); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
				// Sequential consistency for the deleting goroutine: the
				// tombstone is published before Delete returns.
				res, err := e.Search("Lahore Peshawar bulletin", e.NumDocs())
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range res {
					if r.ID == id {
						t.Fatalf("op %d: doc %d surfaced after its Delete returned", op, id)
					}
				}
			}
		case 3:
			if id := randLive(); id >= 0 {
				if err := e.Update(Document{ID: id, Title: "churn-upd", Text: fmt.Sprintf("Updated churn bulletin %d about Swat Valley.", id)}); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			e.Refresh()
		}
	}
	close(stop)
	wg.Wait()
	// A delete moves a segment's tier without running the policy, and a
	// Refresh with nothing pending is a no-op: seal one more document so the
	// final Refresh runs the policy over the churned set.
	if err := e.Add(Document{ID: nextID, Title: "churn", Text: "A closing churn bulletin about Lahore."}); err != nil {
		t.Fatal(err)
	}
	live[nextID] = true
	e.Refresh()
	if got := e.NumDocs(); got != len(live) {
		t.Fatalf("NumDocs = %d, tracker says %d", got, len(live))
	}
	checkTierBound(t, e, "after churn")
	for id := range live {
		if _, err := e.ExplainDOT(lifecycleQueries[0], id, "x"); err != nil {
			t.Fatalf("live doc %d unknown after churn: %v", id, err)
		}
	}
	// Both mid-churn snapshot targets hold loadable snapshots.
	for _, dir := range snapDirs {
		if _, err := os.Stat(filepath.Join(dir, "meta.json")); err != nil {
			continue // saver may not have reached this dir
		}
		if _, err := Load(dir, g); err != nil {
			t.Fatalf("mid-churn snapshot %s does not load: %v", dir, err)
		}
	}
}

// checkTierBound asserts the merge policy's invariant after a refresh: no
// run is left to merge, and the set holds at most mergeFactor-1 segments
// per tier.
func checkTierBound(t *testing.T, e *Engine, when string) {
	t.Helper()
	if lo, hi, ok := findMergeRun(e.set.Load().segs); ok {
		t.Fatalf("%s: segments [%d, %d) still form a merge run", when, lo, hi)
	}
	if got, bound := e.NumSegments(), (mergeFactor-1)*(segTier(e.NumDocs())+1); got > bound {
		t.Fatalf("%s: %d segments over %d documents, want <= %d", when, got, e.NumDocs(), bound)
	}
}

// TestMergeWriteAmplification streams 2,048 documents over the sample
// corpus, one per refresh — a news stream sealed as it arrives. Geometric
// tiers rewrite each streamed document about once per tier it climbs, so
// the documents merges rewrite, divided by the documents applied, stay
// within ⌈log_8 2048⌉ = 4; and the tier bound holds after every refresh.
func TestMergeWriteAmplification(t *testing.T) {
	const applied = 2048
	e := sampleEngine(t, DefaultConfig())
	for i := 0; i < applied; i++ {
		if err := e.Add(Document{ID: 50000 + i, Title: "stream", Text: fmt.Sprintf("Bulletin %d on the Taliban in Lahore.", i)}); err != nil {
			t.Fatal(err)
		}
		e.Refresh()
		checkTierBound(t, e, fmt.Sprintf("refresh %d", i))
	}
	merged := e.met.segmentMergedDocs.Value()
	amp := float64(merged) / applied
	if amp > 4 {
		t.Fatalf("merges rewrote %d documents for %d applied: amplification %.1f, want <= 4", merged, applied, amp)
	}
	t.Logf("merges rewrote %d documents for %d applied: amplification %.2f, %d segments", merged, applied, amp, e.NumSegments())
}

// TestMergeTiersUnevenBatches seals micro-batches of uneven size, as the
// ingest applier does under bursty load, so a segment is often sealed
// right after smaller ones, and deletes shrink segments below their tier.
// The policy bound must hold after every refresh all the same: without
// promoting the small segments sealed before a larger one, they would
// never again sit next to a segment of their own tier.
func TestMergeTiersUnevenBatches(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	rng := rand.New(rand.NewSource(29))
	id := 60000
	for batch := 0; batch < 300; batch++ {
		n := 1 + rng.Intn(3)
		if rng.Intn(4) == 0 {
			n = 1 + rng.Intn(100)
		}
		docs := make([]Document, n)
		for i := range docs {
			docs[i] = Document{ID: id, Title: "batch", Text: fmt.Sprintf("Bulletin %d from Peshawar.", id)}
			id++
		}
		if err := e.AddAll(docs, 1); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) == 0 {
			if err := e.Delete(id - 1 - rng.Intn(n)); err != nil {
				t.Fatal(err)
			}
		}
		e.Refresh()
		checkTierBound(t, e, fmt.Sprintf("batch %d", batch))
	}
}
