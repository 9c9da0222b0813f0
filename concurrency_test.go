package newslink

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newslink/internal/corpus"
)

// TestConcurrentAddSearchExplain interleaves writer calls (Add, AddAll,
// Refresh) with reader calls (Search, Explain, ExplainDOT, NumDocs) from
// many goroutines. Run under -race this is the regression test for the
// engine's RWMutex: at seed, Add's segment swap raced with Search. The
// AddAll spans five windows of 4, so its analyzer goroutine races the
// other writer's Adds and Refreshes and the readers' refreshes between
// its windows.
func TestConcurrentAddSearchExplain(t *testing.T) {
	g, arts := corpus.Sample()
	e := New(g, DefaultConfig(), withWriteBatch(4))
	for _, a := range arts[:2] {
		if err := e.Add(Document{ID: a.ID, Title: a.Title, Text: a.Text}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var failed atomic.Value
	fail := func(err error) { failed.CompareAndSwap(nil, err) }

	// Writers: one feeds the remaining sample docs one by one, with
	// explicit Refreshes sprinkled in; the other adds synthetic filler
	// docs in one AddAll.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, a := range arts[2:] {
			if err := e.Add(Document{ID: a.ID, Title: a.Title, Text: a.Text}); err != nil {
				fail(err)
				return
			}
			if i%2 == 0 {
				e.Refresh()
			}
		}
	}()
	go func() {
		defer wg.Done()
		fillers := make([]Document, 20)
		for i := range fillers {
			// A unique alphabetic token per doc so each is individually
			// retrievable (digits are not index terms).
			fillers[i] = Document{
				ID:    1000 + i,
				Title: fmt.Sprintf("filler %d", i),
				Text:  fmt.Sprintf("Taliban activity report fillerdoc%c near Peshawar and Lahore.", 'a'+i),
			}
		}
		if err := e.AddAll(fillers, 2); err != nil {
			fail(err)
		}
	}()

	queries := []string{
		"Taliban bombing in Lahore and Peshawar",
		"Sanders said voters were tired of hearing about Clinton and the FBI emails.",
		"quarterly earnings beat expectations",
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				q := queries[(r+i)%len(queries)]
				res, err := e.Search(q, 5)
				if err != nil {
					fail(err)
					return
				}
				if len(res) > 0 {
					if _, err := e.Explain(q, res[0].ID, 2); err != nil {
						fail(err)
						return
					}
					if _, err := e.ExplainDOT(q, res[0].ID, "t"); err != nil {
						fail(err)
						return
					}
				}
				e.NumDocs()
			}
		}(r)
	}
	wg.Wait()
	if err := failed.Load(); err != nil {
		t.Fatal(err)
	}
	// Every write landed and is searchable.
	if got, want := e.NumDocs(), len(arts)+20; got != want {
		t.Fatalf("NumDocs = %d, want %d", got, want)
	}
	res, err := e.Search("Taliban activity report fillerdoch", 3)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.ID == 1007 {
			found = true
		}
	}
	if !found {
		t.Fatalf("late-added filler doc not retrievable: %+v", res)
	}
}

// TestSearchContextCancellation: an already-cancelled context must abort
// Search, Explain and ExplainDOT promptly with ctx.Err().
func TestSearchContextCancellation(t *testing.T) {
	e := sampleEngine(t, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	start := time.Now()
	if _, err := e.SearchContext(ctx, Query{Text: "Taliban bombing", K: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchContext on cancelled ctx: %v", err)
	}
	if _, err := e.ExplainContext(ctx, "Taliban bombing", 1, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExplainContext on cancelled ctx: %v", err)
	}
	if _, err := e.ExplainDOTContext(ctx, "Taliban bombing", 1, "t"); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExplainDOTContext on cancelled ctx: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled calls took %v, not prompt", elapsed)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := e.SearchContext(expired, Query{Text: "Taliban bombing", K: 3}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SearchContext on expired ctx: %v", err)
	}
}

// TestSearchRequestOverrides: per-request β and pool must behave exactly
// like an engine configured with those values.
func TestSearchRequestOverrides(t *testing.T) {
	eDefault := sampleEngine(t, DefaultConfig()) // β=0.2
	eText := sampleEngine(t, Config{Beta: 0, Model: LCAG, MaxDepth: 6, PoolDepth: 100})

	q := "Taliban bombing in Lahore and Peshawar"
	want, err := eText.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	beta := 0.0
	got, err := eDefault.SearchContext(context.Background(), Query{Text: q, K: 5, Beta: &beta})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("β override disagrees with β-configured engine:\n%v\nvs\n%v", got, want)
	}
	// The override is per-request: the engine default is untouched.
	d1, err := eDefault.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := eDefault.SearchContext(context.Background(), Query{Text: q, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("default-parameter request disagrees with Search")
	}
	// PoolDepth override: a pool of 1 per index still fuses and returns.
	res, err := eDefault.SearchContext(context.Background(), Query{Text: q, K: 1, PoolDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("pool=1 returned %d results", len(res))
	}
}
