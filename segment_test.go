package newslink

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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

// TestDeleteBasics: a tombstoned document leaves NumDocs, Search and
// Explain at once and counts in NumDeletedDocs; deleting it again, or an ID
// never added, is ErrUnknownDoc; and its ID may be added again.
func TestDeleteBasics(t *testing.T) {
	runHistory(t, "addall 0-7; build; search q=4; delete 4; explain 4 q=4; search q=4 k=50; delete 4; delete 987; add 4; search q=4")
}

// TestDeletePendingDocument: a document still in the open segment is
// sealed, then tombstoned.
func TestDeletePendingDocument(t *testing.T) {
	runHistory(t, "addall 0-7; build; add 8, delete 8; search q=4 k=50")
}

func TestWritesBeforeBuildFail(t *testing.T) {
	runHistory(t, "delete 1, update 1, ingest 1, compact; add 0; build")
}

// TestUpdateReplacesDocument: an update keeps NumDocs and serves only the
// new version; an update of a new ID adds it.
func TestUpdateReplacesDocument(t *testing.T) {
	runHistory(t, "addall 0-7; build; search q=4; update 5; search q=4 k=50; search q=2; update 40; search q=4 k=50")
}

// TestCompactMergesToSingleSegment: Compact over several segments and a
// tombstone counts one merge of every live document and leaves one
// tombstone-free segment; a second Compact is a no-op.
func TestCompactMergesToSingleSegment(t *testing.T) {
	runHistory(t, "addall 0-7; build; add 8; add 9; add 10; delete 2; compact; search q=4; compact")
}

// TestSegmentScheduleIdentity is the merge-identity property of DESIGN.md
// §11: under add, refresh and compact schedules without deletes, every
// search equals, scores included, the reference's single batch build.
func TestSegmentScheduleIdentity(t *testing.T) {
	runHistory(t, "addall 0-2; build; add 3, add 4; add 5-7; search q=5; add 8, refresh, add 9; add 10-13; search q=4 beta=1; compact; search q=4")
}

// TestDeletedNeverReturned: tombstoned documents never surface from Search
// or Explain — tombstoned, across a snapshot round trip, and compacted.
func TestDeletedNeverReturned(t *testing.T) {
	runHistory(t, "addall 0-11; build; delete 1, delete 4, delete 5, delete 9; search q=4 k=50; explain 5 q=4; save; search q=4 k=50; explain 4 q=4; compact; search q=5 k=50; explain 1 q=5")
}

// TestIncrementalSaveReusesSegments: re-saving over an existing snapshot
// hard-links the artifacts of unchanged segments instead of rewriting them
// (content-addressed reuse), those of segments whose only change is a new
// tombstone included — tombstones live in meta.json.
func TestIncrementalSaveReusesSegments(t *testing.T) {
	runHistory(t, "addall 0-7; build; save; add 8; delete 1; save")
}

// TestChurnSegmentLifecycle drives the segment lifecycle under
// concurrency, for the race detector (the CI resilience job): a writer's
// Add, Update, Delete and Refresh while searchers, explainers and a
// snapshotter run. The same writes in sequence are a fixed history of the
// model; what only concurrency shows is checked here: no read or save
// fails, a delete is invisible to the deleting goroutine as soon as it
// returns, the state the churn leaves (NumDocs, the tier bound, every live
// document explainable) matches the writer's tracker, and every snapshot
// written mid-churn loads.
func TestChurnSegmentLifecycle(t *testing.T) {
	runHistory(t, "addall 0-7; build; add 8, update 3, delete 5; update 8, add 9; delete 9, refresh; save; add 10, delete 3; compact")
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
