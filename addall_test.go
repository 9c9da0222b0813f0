package newslink

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"newslink/internal/corpus"
)

// assertSameSnapshot saves both engines and requires the two snapshot
// directories to hold the same files with the same bytes.
func assertSameSnapshot(t *testing.T, got, want *Engine) {
	t.Helper()
	gotDir, wantDir := t.TempDir(), t.TempDir()
	if err := got.Save(gotDir); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(wantDir); err != nil {
		t.Fatal(err)
	}
	if err := diffDirs(gotDir, wantDir); err != nil {
		t.Fatal(err)
	}
}

// assertSameRankings requires both engines to answer every query with
// DeepEqual results.
func assertSameRankings(t *testing.T, got, want *Engine, queries []string) {
	t.Helper()
	for _, q := range queries {
		a, err := want.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("rankings disagree for %q:\n%v\nvs\n%v", q, b, a)
		}
	}
}

// TestAddAllMatchesSequentialAdd: AddAll — in one window on the reloaded
// execution, in windows of 3 with the WAL armed on the wal execution — of
// 60 documents, half before Build and half after it, searches and saves
// byte for byte as the memory execution's one Add per document.
func TestAddAllMatchesSequentialAdd(t *testing.T) {
	runHistory(t, "addall 0-29; build; addall 30-59; search q=4; search q=2 k=50; save")
}

// TestAddAllAbortsAcrossWindows: a post-Build AddAll of five windows of 4
// whose duplicate ID sits in the third keeps every document before the
// duplicate, logs and applies nothing behind it, leaves no goroutine
// behind (the fourth window is being analyzed when the third aborts), and
// a replay of its log converges to the state the call left.
func TestAddAllAbortsAcrossWindows(t *testing.T) {
	_, arts := corpus.Sample()
	walDir := t.TempDir()
	e := walEngine(t, walDir, withWriteBatch(4))
	defer e.Close()
	batch := make([]Document, 20)
	for i := range batch {
		batch[i] = streamDoc(arts, i)
	}
	const dup = 9
	batch[dup] = streamDoc(arts, 2)
	baseline := runtime.NumGoroutine()
	appends := e.met.walAppends.Value()
	if err := e.AddAll(batch, 2); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("AddAll with a duplicate in its third window: %v", err)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the aborted AddAll, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
	// The documents before the duplicate plus its one rejected record.
	if got := e.met.walAppends.Value() - appends; got != dup+1 {
		t.Fatalf("logged %d records, want %d", got, dup+1)
	}
	live := liveDocSet(t, e)
	for i, d := range batch {
		if _, ok := live[d.ID]; i < dup && !ok {
			t.Fatalf("document %d (ID %d) before the duplicate is not live", i, d.ID)
		} else if i > dup && ok {
			t.Fatalf("document %d (ID %d) behind the duplicate was applied", i, d.ID)
		}
	}
	if got, want := e.NumDocs(), len(arts)+dup; got != want {
		t.Fatalf("NumDocs = %d, want %d", got, want)
	}
	last := batch[dup-1]
	res, err := e.Search(last.Text, len(arts)+dup)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		found = found || r.ID == last.ID
	}
	if !found {
		t.Fatalf("document %d before the duplicate is not searchable", last.ID)
	}
	// Crash: replay a copy of the log over the same starting corpus.
	replayDir := t.TempDir()
	copyDir(t, walDir, replayDir)
	replayed := walEngine(t, replayDir, withWriteBatch(4))
	defer replayed.Close()
	if got, want := replayed.NumDocs(), e.NumDocs(); got != want {
		t.Fatalf("replayed NumDocs = %d, want %d", got, want)
	}
	queries := []string{"bombing in Lahore", "Clinton and Trump in the US presidential election"}
	for i := 0; i < dup; i += 4 {
		queries = append(queries, fmt.Sprintf("%.60s", batch[i].Text))
	}
	assertSameRankings(t, replayed, e, queries)
	assertSameSnapshot(t, replayed, e)
}

// TestAddAllWorkerEdgeCases: AddAll analyzes on GOMAXPROCS workers for 0
// (the reloaded execution), clamps a worker count above the batch (the wal
// execution's 100), and after Build lands in the open segment.
func TestAddAllWorkerEdgeCases(t *testing.T) {
	runHistory(t, "addall 0; build; addall 1-7; search q=4")
}

func ExampleEngine_Search() {
	g, arts := corpus.Sample()
	e := New(g, DefaultConfig())
	for _, a := range arts {
		if err := e.Add(Document{ID: a.ID, Title: a.Title, Text: a.Text}); err != nil {
			panic(err)
		}
	}
	if err := e.Build(); err != nil {
		panic(err)
	}
	res, err := e.Search("Taliban bombing in Lahore and Peshawar", 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(res[0].Title)
	// Output: Bombing attack by Taliban in Pakistan
}
