package newslink

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"newslink/internal/core"
	"newslink/internal/corpus"
	"newslink/internal/index"
	"newslink/internal/kg"
	"newslink/internal/search"
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

// filterCases enumerates the filter-clause combinations of one fixture:
// tombstones alone (always present), each temporal bound, a closed
// window, an entity facet, and their compositions.
func filterCases(w *kg.World, arts []corpus.Article) map[string]Query {
	label := w.Graph.Label(w.Events[0].Participants[0])
	mid := arts[len(arts)/2].Time
	late := arts[3*len(arts)/4].Time
	return map[string]Query{
		"unfiltered":   {},
		"after":        {After: mid},
		"before":       {Before: mid},
		"window":       {After: mid, Before: late},
		"entity":       {Entities: []string{label}},
		"entity+after": {After: mid, Entities: []string{label}},
		"empty-window": {After: late, Before: mid},
	}
}

// sameResults compares rankings exactly by document and order, and scores
// within float tolerance (separate traversals may accumulate in different
// orders, so last-ulp differences are expected).
func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Title != b[i].Title || a[i].Snippet != b[i].Snippet ||
			math.Abs(a[i].Score-b[i].Score) > 1e-9 {
			return false
		}
	}
	return true
}

// bruteForceSearch replicates searchContext with exact TAAT traversals
// (search.TopK) over the same composed-filter sources: the reference
// ranking the block-max pipeline must reproduce for every filter
// combination. Scorers read the unfiltered statistics, exactly as the
// engine's filtered-statistics semantics specify.
// mustFilter compiles a request filter the way every engine read does.
func mustFilter(t *testing.T, e *Engine, snap *segmentSet, after, before int64, entities []string, exclude int) *queryFilter {
	t.Helper()
	flt, err := newQueryFilter(snap, after, before, entityTerms(e.Graph(), entities), exclude)
	if err != nil {
		t.Fatal(err)
	}
	return flt
}

// exactTopK is the TAAT oracle with a read error failing the test.
func exactTopK(t *testing.T, src index.Source, s search.BM25, q search.Query, k int) []search.Hit {
	t.Helper()
	hits, err := search.TopK(src, s, q, k)
	if err != nil {
		t.Fatal(err)
	}
	return hits
}

func bruteForceSearch(t *testing.T, e *Engine, q Query) []Result {
	t.Helper()
	ctx := context.Background()
	snap, err := e.acquire()
	if err != nil {
		t.Fatal(err)
	}
	beta := e.cfg.Beta
	if q.Beta != nil {
		beta = *q.Beta
	}
	pool := q.PoolDepth
	if pool <= 0 {
		pool = e.cfg.PoolDepth
	}
	if pool < q.K {
		pool = q.K
	}
	if n := snap.numLive(); pool > n {
		pool = n
	}
	qEmb, qTerms, err := e.analyzeQuery(ctx, q.Text)
	if err != nil {
		t.Fatal(err)
	}
	flt := mustFilter(t, e, snap, q.After, q.Before, q.Entities, -1)
	text, node := snap.textSource(flt), snap.nodeSource(flt)
	var bow, bon []search.Hit
	if beta < 1 {
		bow = exactTopK(t, text, search.NewBM25(text), search.NewQuery(qTerms), pool)
	}
	if beta > 0 && qEmb != nil {
		nq := make(search.Query, len(qEmb.Counts))
		for n, c := range qEmb.Counts {
			nq[core.NodeTerm(n)] = float64(c)
		}
		bon = exactTopK(t, node, search.NodeBM25(node.NumDocs(), node.AvgDocLen()), nq, pool)
	}
	fused := search.Fuse(bow, bon, beta, q.K)
	out := make([]Result, len(fused))
	for i, h := range fused {
		doc := snap.doc(int(h.Doc))
		out[i] = Result{ID: doc.ID, Title: doc.Title, Score: h.Score, Snippet: referenceSnippet(doc.Text, qTerms)}
	}
	return out
}

var filterQueries = []string{
	"clashes near the border",
	"ceasefire talks resume",
	"minister parliament vote",
	"xyzzy nosuchterm anywhere",
}

// TestFilteredSearchMatchesBruteForce: the filtered block-max pipeline
// must be rank- and score-identical to brute-force-filtered TAAT across
// tombstones × time-range × entity facets, on the in-memory engine and on
// a reloaded snapshot of it.
func TestFilteredSearchMatchesBruteForce(t *testing.T) {
	e, w, arts := filterFixture(t)
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Load(dir, w.Graph)
	if err != nil {
		t.Fatal(err)
	}
	defer reloaded.Close()
	for name, base := range filterCases(w, arts) {
		for _, qText := range filterQueries {
			for _, k := range []int{1, 5, 100} {
				q := base
				q.Text, q.K = qText, k
				want := bruteForceSearch(t, e, q)
				for engName, eng := range map[string]*Engine{"memory": e, "reloaded": reloaded} {
					got, err := eng.SearchContext(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					if !sameResults(got, want) {
						t.Fatalf("%s/%s q=%q k=%d: filtered block-max != brute-force TAAT\n%v\nvs\n%v",
							name, engName, qText, k, got, want)
					}
				}
			}
		}
	}
}

// TestFilteredShardedTraversalAgrees runs the block-max kernel directly
// over the engine's composed-filter sources and compares it to exact TAAT
// — the same identity below the engine's pool clamping and fusion.
func TestFilteredShardedTraversalAgrees(t *testing.T) {
	e, w, arts := filterFixture(t)
	snap, err := e.acquire()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, q := range filterCases(w, arts) {
		src := snap.textSource(mustFilter(t, e, snap, q.After, q.Before, q.Entities, -1))
		scorer := search.NewBM25(src)
		for _, qText := range filterQueries {
			_, terms, err := e.analyzeQuery(ctx, qText)
			if err != nil {
				t.Fatal(err)
			}
			tq := search.NewQuery(terms)
			for _, k := range []int{1, 10, snap.numDocs} {
				want := exactTopK(t, src, scorer, tq, k)
				got, _, err := search.TopKBlockMaxStats(ctx, src, scorer, tq, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s q=%q k=%d: filtered block-max != TAAT\n%v\nvs\n%v", name, qText, k, got, want)
				}
			}
		}
	}
}

// TestFilteredResultsRespectPredicate: every filtered result must be
// live, inside the requested window, and carry every requested entity in
// its embedding, re-derived from its text; an unresolvable label matches
// nothing; adding a second facet can only shrink the result set.
func TestFilteredResultsRespectPredicate(t *testing.T) {
	e, w, arts := filterFixture(t)
	snap, err := e.acquire()
	if err != nil {
		t.Fatal(err)
	}
	dead := map[int]bool{arts[5].ID: true, arts[40].ID: true, arts[70].ID: true}
	label := w.Graph.Label(w.Events[0].Participants[0])
	labelNodes := map[kg.NodeID]bool{}
	for _, n := range w.Graph.Lookup(kg.Fold(label)) {
		labelNodes[n] = true
	}
	// Event 0's coverage sits at the front of the generated corpus, so a
	// window over the first half keeps the facet and the bounds overlapping.
	lo, hi := arts[0].Time, arts[len(arts)/2].Time
	q := Query{Text: "clashes near the border", K: 90,
		After: lo, Before: hi, Entities: []string{label}}
	res, err := e.SearchContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("filtered query matched nothing; fixture or facet resolution broken")
	}
	for _, r := range res {
		if dead[r.ID] {
			t.Fatalf("tombstoned doc %d surfaced through a filtered search", r.ID)
		}
		if tm := arts[r.ID].Time; tm < lo || tm > hi {
			t.Fatalf("doc %d time %d outside window [%d,%d]", r.ID, tm, lo, hi)
		}
		pos, err := e.lookup(snap, r.ID)
		if err != nil {
			t.Fatal(err)
		}
		emb := e.docEmbedding(snap, pos)
		if emb == nil {
			t.Fatalf("doc %d passed the entity facet without an embedding", r.ID)
		}
		found := false
		for n := range emb.Counts {
			if labelNodes[n] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("doc %d passed the %q facet without the entity in its embedding", r.ID, label)
		}
	}
	// A second conjunctive facet can only shrink the set.
	q2 := q
	q2.Entities = append([]string{label}, w.Graph.Label(w.Events[0].Participants[1]))
	res2, err := e.SearchContext(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}
	in := map[int]bool{}
	for _, r := range res {
		in[r.ID] = true
	}
	for _, r := range res2 {
		if !in[r.ID] {
			t.Fatalf("conjunctive facet admitted doc %d the single facet rejected", r.ID)
		}
	}
	// An unresolvable label must match nothing, not everything.
	res3, err := e.SearchContext(context.Background(),
		Query{Text: q.Text, K: 10, Entities: []string{"No Such Entity Anywhere"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res3) != 0 {
		t.Fatalf("unresolvable entity label matched %d documents", len(res3))
	}
}

// TestFilteredExplain: an explanation honours the request's filters — a
// document outside the window or tombstoned is ErrUnknownDoc, one inside
// explains exactly as without filters.
func TestFilteredExplain(t *testing.T) {
	e, _, arts := filterFixture(t)
	ctx := context.Background()
	const qText = "clashes near the border"
	inWindow := arts[10]
	if _, err := e.ExplainQueryContext(ctx, Query{Text: qText, Before: arts[20].Time}, inWindow.ID, 3); err != nil {
		t.Fatalf("in-window explain failed: %v", err)
	}
	// Filtered and unfiltered explanations of a passing doc are identical.
	plain, err := e.ExplainContext(ctx, qText, inWindow.ID, 3)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := e.ExplainQueryContext(ctx, Query{Text: qText, Before: arts[20].Time}, inWindow.ID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, filtered) {
		t.Fatal("filters changed the explanation of a document that passes them")
	}
	// Outside the window: unknown, exactly like a tombstone.
	if _, err := e.ExplainQueryContext(ctx, Query{Text: qText, After: arts[50].Time}, inWindow.ID, 3); !errors.Is(err, ErrUnknownDoc) {
		t.Fatalf("out-of-window explain returned %v, want ErrUnknownDoc", err)
	}
	if _, err := e.ExplainQueryContext(ctx, Query{Text: qText, Before: arts[20].Time}, arts[5].ID, 3); !errors.Is(err, ErrUnknownDoc) {
		t.Fatalf("tombstoned filtered explain returned %v, want ErrUnknownDoc", err)
	}
	// Never out of range: an ID beyond the corpus stays unknown under filters.
	if _, err := e.ExplainQueryContext(ctx, Query{Text: qText, After: 1}, 1<<30, 3); !errors.Is(err, ErrUnknownDoc) {
		t.Fatalf("out-of-range filtered explain returned %v, want ErrUnknownDoc", err)
	}
}

// bruteForceRelated replicates relatedContext's float leg with exact TAAT:
// the source document's embedding, re-derived from its text, becomes the
// node query, scored over the self-excluding composed filter, normalized
// as a pure-BON ranking.
func bruteForceRelated(t *testing.T, e *Engine, q RelatedQuery) []Result {
	t.Helper()
	snap, err := e.acquire()
	if err != nil {
		t.Fatal(err)
	}
	pos, err := e.lookup(snap, q.DocID)
	if err != nil {
		t.Fatal(err)
	}
	emb := e.docEmbedding(snap, pos)
	if emb == nil || len(emb.Counts) == 0 {
		return nil
	}
	pool := q.PoolDepth
	if pool <= 0 {
		pool = e.cfg.PoolDepth
	}
	if pool < q.K {
		pool = q.K
	}
	if n := snap.numLive(); pool > n {
		pool = n
	}
	node := snap.nodeSource(mustFilter(t, e, snap, q.After, q.Before, q.Entities, pos))
	nq := make(search.Query, len(emb.Counts))
	for n, c := range emb.Counts {
		nq[core.NodeTerm(n)] = float64(c)
	}
	bon := exactTopK(t, node, search.NodeBM25(node.NumDocs(), node.AvgDocLen()), nq, pool)
	fused := search.Fuse(nil, bon, 1, q.K)
	out := make([]Result, len(fused))
	for i, h := range fused {
		doc := snap.doc(int(h.Doc))
		out[i] = Result{ID: doc.ID, Title: doc.Title, Score: h.Score}
	}
	return out
}

// TestRelatedMatchesBruteForce: the float-leg Related ranking equals the
// exact TAAT reference for unfiltered and filtered requests.
func TestRelatedMatchesBruteForce(t *testing.T) {
	e, w, arts := filterFixture(t)
	label := w.Graph.Label(w.Events[0].Participants[0])
	reqs := []RelatedQuery{
		{DocID: arts[0].ID, K: 10},
		{DocID: arts[12].ID, K: 5, After: arts[20].Time},
		{DocID: arts[33].ID, K: 90, Entities: []string{label}},
		{DocID: arts[60].ID, K: 3, After: arts[10].Time, Before: arts[80].Time},
	}
	for _, q := range reqs {
		want := bruteForceRelated(t, e, q)
		got, err := e.RelatedContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(got, want) {
			t.Fatalf("Related(%+v) != brute-force TAAT\n%v\nvs\n%v", q, got, want)
		}
	}
}

// TestRelatedSemantics: self-exclusion, error contract, and the
// filtered-subsequence property of the BON leg.
// With an exhaustive pool the filtered ranking must be exactly the
// unfiltered ranking minus the filtered documents (normalization rescales
// scores but never reorders a pure-BON ranking).
func TestRelatedSemantics(t *testing.T) {
	for _, leg := range []struct {
		name string
		opts []Option
	}{
		{"float", nil},
	} {
		t.Run(leg.name, func(t *testing.T) {
			e, _, arts := filterFixture(t, leg.opts...)
			snap, err := e.acquire()
			if err != nil {
				t.Fatal(err)
			}
			src := arts[7]
			full, err := e.RelatedContext(context.Background(), RelatedQuery{DocID: src.ID, K: 90, PoolDepth: 90})
			if err != nil {
				t.Fatal(err)
			}
			if len(full) == 0 {
				t.Fatal("no related documents for an event article")
			}
			for _, r := range full {
				if r.ID == src.ID {
					t.Fatal("Related returned the source document")
				}
			}
			for i := 1; i < len(full); i++ {
				if full[i].Score > full[i-1].Score {
					t.Fatal("related results not sorted by score")
				}
			}
			// Filtered = unfiltered subsequence under the predicate.
			mid, late := arts[len(arts)/2].Time, arts[3*len(arts)/4].Time
			filtered, err := e.RelatedContext(context.Background(),
				RelatedQuery{DocID: src.ID, K: 90, PoolDepth: 90, After: mid, Before: late})
			if err != nil {
				t.Fatal(err)
			}
			var wantIDs []int
			for _, r := range full {
				if tm := arts[r.ID].Time; tm >= mid && tm <= late {
					wantIDs = append(wantIDs, r.ID)
				}
			}
			gotIDs := make([]int, len(filtered))
			for i, r := range filtered {
				gotIDs[i] = r.ID
			}
			if !reflect.DeepEqual(gotIDs, wantIDs) {
				t.Fatalf("filtered related IDs %v, want unfiltered-minus-filtered %v", gotIDs, wantIDs)
			}
			// Error contract.
			if _, err := e.Related(arts[5].ID, 3); !errors.Is(err, ErrUnknownDoc) {
				t.Fatalf("tombstoned source returned %v, want ErrUnknownDoc", err)
			}
			if _, err := e.Related(1<<30, 3); !errors.Is(err, ErrUnknownDoc) {
				t.Fatalf("unknown source returned %v, want ErrUnknownDoc", err)
			}
			if _, err := e.Related(arts[0].ID, 0); !errors.Is(err, ErrInvalidK) {
				t.Fatalf("k=0 returned %v, want ErrInvalidK", err)
			}
			// A document that embedded to nothing relates to nothing.
			for pos := 0; pos < snap.numDocs; pos++ {
				if e.docEmbedding(snap, pos) != nil {
					continue
				}
				doc := snap.doc(pos)
				res, err := e.Related(doc.ID, 5)
				if err != nil || len(res) != 0 {
					t.Fatalf("embedding-less doc %d: got %v, %v; want empty, nil", doc.ID, res, err)
				}
				break
			}
		})
	}
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
