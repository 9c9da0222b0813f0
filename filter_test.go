package newslink

import (
	"errors"
	"reflect"
	"testing"

	"newslink/internal/corpus"
	"newslink/internal/kg"
)

// filterFixture builds a multi-segment engine over a timestamped generated
// corpus with tombstones in distinct segments — the corpus shape every
// DocFilter property below runs against. Returns the engine, the world
// (for entity labels) and the articles (for timestamps and IDs).
func filterFixture(t testing.TB, opts ...Option) (*Engine, *kg.World, []corpus.Article) {
	t.Helper()
	w := kg.Generate(kg.DefaultConfig(19))
	arts := corpus.Generate(w, corpus.CNNLike(), 90, 19)
	e := New(w.Graph, append([]Option{DefaultConfig()}, opts...)...)
	for i, a := range arts {
		if err := e.Add(Document{ID: a.ID, Title: a.Title, Text: a.Text, Time: a.Time}); err != nil {
			t.Fatal(err)
		}
		switch i + 1 {
		case 30:
			if err := e.Build(); err != nil {
				t.Fatal(err)
			}
		case 60, 90:
			e.Refresh()
		}
	}
	for _, id := range []int{arts[5].ID, arts[40].ID, arts[70].ID} {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { e.Close() })
	return e, w, arts
}

// TestFilteredSearchMatchesBruteForce: the filtered block-max pipeline is
// rank- and score-identical to exact TAAT over the reference's masks,
// across tombstones × time range × entity facets, on every execution.
func TestFilteredSearchMatchesBruteForce(t *testing.T) {
	runHistory(t, filterHistory+"; save"+filterReads("search", "q=0 k=1", "q=1 k=5", "q=4 k=100", "q=5 k=5 beta=1", "q=6 beta=0.5"))
}

// TestFilteredShardedTraversalAgrees: the block-max kernel, run over the
// composed-filter sources of one process and of a snapshot's shard slices
// at pool depths 1, 10 and the whole corpus, equals exact TAAT.
func TestFilteredShardedTraversalAgrees(t *testing.T) {
	runHistory(t, filterHistory+"; save"+filterReads("search", "q=0 k=1 pool=1 beta=0", "q=4 pool=10 beta=0", "q=4 k=64 pool=64 beta=0", "q=5 pool=10 beta=1"))
}

// TestFilteredResultsRespectPredicate: every filtered result is live,
// inside the window and carries every requested entity in its embedding,
// re-derived from its text — the reference admits nothing else; a second
// facet only shrinks the set, and an unresolvable label matches nothing.
func TestFilteredResultsRespectPredicate(t *testing.T) {
	runHistory(t, filterHistory+"; search k=64 after=1 before=7 ent=1; search k=64 after=1 before=7 ent=1+2; search ent=0")
}

// TestFilteredExplain: an explanation honours the request's filters — a
// document outside the window, tombstoned or never added is ErrUnknownDoc,
// one inside explains exactly as without filters.
func TestFilteredExplain(t *testing.T) {
	runHistory(t, filterHistory+"; explain 13 q=4 before=4; explain 13 q=4 after=4; explain 5 q=4 before=4; explain 999 q=4 after=1")
}

// TestRelatedMatchesBruteForce: Related equals the exact TAAT reference
// for unfiltered and filtered requests.
func TestRelatedMatchesBruteForce(t *testing.T) {
	runHistory(t, filterHistory+"; save"+filterReads("related", "0", "12 k=5", "33 k=90", "60 k=3 pool=1"))
}

// TestRelatedSemantics: Related never returns its source document, ranks
// by score, filters to the unfiltered ranking's subsequence — the
// reference's semantics — is ErrUnknownDoc for a tombstoned or unknown
// source, and empty for one that embedded to nothing (document 18); k = 0
// is ErrInvalidK.
func TestRelatedSemantics(t *testing.T) {
	t.Run("float", func(t *testing.T) {
		r := runHistory(t, filterHistory+"; related 7 k=64 pool=64; related 7 k=64 pool=64 after=4 before=6; related 5; related 999; related 18")
		if _, err := r.mem.e.Related(0, 0); !errors.Is(err, ErrInvalidK) {
			t.Fatalf("k=0 returned %v, want ErrInvalidK", err)
		}
	})
}

// TestWALTimestampBackCompat: a record roundtrips its timestamp, and a
// record that ends at the text — the layout written before the timestamp
// existed, against snapshots every loader now refuses — is corrupt.
func TestWALTimestampBackCompat(t *testing.T) {
	doc := Document{ID: 7, Title: "t", Text: "body text", Time: 1600000000}
	op, got, err := decodeWALOp(encodeWALOp(walOpAdd, doc))
	if err != nil || op != walOpAdd || !reflect.DeepEqual(got, doc) {
		t.Fatalf("roundtrip: op=%d doc=%+v err=%v", op, got, err)
	}
	old := encodeWALOp(walOpAdd, Document{ID: 7, Title: "t", Text: "body text"})
	old = old[:len(old)-1] // drop the encoded zero timestamp byte
	if _, _, err := decodeWALOp(old); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("record without a timestamp: %v, want ErrWALCorrupt", err)
	}
}
