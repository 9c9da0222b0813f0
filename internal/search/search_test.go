package search

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"newslink/internal/index"
)

// add indexes a document from an unsorted term list through Add, which
// takes its terms sorted: the one way these tests feed a Builder.
func add(b *index.Builder, terms []string) index.DocID {
	sorted := slices.Clone(terms)
	sort.Strings(sorted)
	return b.Add(sorted)
}

func buildIdx(docs ...string) *index.Index {
	b := index.NewBuilder()
	for _, d := range docs {
		add(b, strings.Fields(d))
	}
	return b.Build()
}

// exactTopK runs the TAAT oracle; a resident index cannot fail a read.
func exactTopK(t testing.TB, idx index.Source, s BM25, q Query, k int) []Hit {
	t.Helper()
	hits, err := TopK(idx, s, q, k)
	if err != nil {
		t.Fatal(err)
	}
	return hits
}

func TestBM25Ranking(t *testing.T) {
	idx := buildIdx(
		"taliban attack lahore",
		"taliban taliban taliban pakistan",
		"weather sunny warm",
		"taliban lahore pakistan swat",
	)
	s := NewBM25(idx)
	hits := exactTopK(t, idx, s, NewQuery([]string{"taliban", "lahore"}), 3)
	if len(hits) != 3 {
		t.Fatalf("hits = %v", hits)
	}
	// Doc 0 and 3 match both terms and must outrank doc 1 (one term).
	if hits[0].Doc != 0 && hits[0].Doc != 3 {
		t.Fatalf("top hit = %v", hits[0])
	}
	if hits[2].Doc != 1 {
		t.Fatalf("third hit = %v, want doc 1", hits[2])
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatal("hits not sorted")
		}
	}
	// The non-matching document never appears.
	for _, h := range hits {
		if h.Doc == 2 {
			t.Fatal("doc 2 should not match")
		}
	}
}

func TestBM25Properties(t *testing.T) {
	idx := buildIdx("a b c", "a a b", "c c c c")
	s := NewBM25(idx)
	if w := s.Weight(0, 1, 3); w != 0 {
		t.Fatalf("zero tf weight = %v", w)
	}
	if w := s.Weight(2, 1, 3); w <= s.Weight(1, 1, 3) {
		t.Fatal("BM25 not increasing in tf")
	}
	if s.Weight(1, 1, 3) <= s.Weight(1, 3, 3) {
		t.Fatal("BM25 idf not decreasing in df")
	}
	if s.Weight(1, 1, 10) >= s.Weight(1, 1, 2) {
		t.Fatal("BM25 not penalizing long docs")
	}
	// MaxWeight is a true upper bound.
	for tf := 1.0; tf <= 4; tf++ {
		for dl := 1.0; dl <= 8; dl++ {
			if s.Weight(tf, 2, dl) > s.MaxWeight(4, 2)+1e-12 {
				t.Fatalf("MaxWeight violated at tf=%v dl=%v", tf, dl)
			}
		}
	}
}

// blockMax runs the block-max kernel to completion, failing the test on
// error.
func blockMax(t *testing.T, idx index.Source, s BM25, q Query, k int) []Hit {
	t.Helper()
	hits, _, err := TopKBlockMaxStats(context.Background(), idx, s, q, k)
	if err != nil {
		t.Fatal(err)
	}
	return hits
}

// TestMaxScoreAgreesWithExact: the pruned evaluation must return exactly the
// same ranking as exhaustive accumulation on random corpora — bit for bit,
// since both fold terms in the canonical order.
func TestMaxScoreAgreesWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for trial := 0; trial < 30; trial++ {
		b := index.NewBuilder()
		nDocs := 5 + rng.Intn(60)
		for d := 0; d < nDocs; d++ {
			n := 1 + rng.Intn(10)
			var terms []string
			for i := 0; i < n; i++ {
				terms = append(terms, vocab[rng.Intn(len(vocab))])
			}
			add(b, terms)
		}
		idx := b.Build()
		s := NewBM25(idx)
		nq := 1 + rng.Intn(4)
		var qterms []string
		for i := 0; i < nq; i++ {
			qterms = append(qterms, vocab[rng.Intn(len(vocab))])
		}
		k := 1 + rng.Intn(10)
		exact := exactTopK(t, idx, s, NewQuery(qterms), k)
		pruned := blockMax(t, idx, s, NewQuery(qterms), k)
		if !reflect.DeepEqual(exact, pruned) {
			t.Fatalf("trial %d: exact %v pruned %v (query %v k=%d)", trial, exact, pruned, qterms, k)
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	idx := buildIdx("a b", "b c")
	s := NewBM25(idx)
	if exactTopK(t, idx, s, NewQuery(nil), 5) != nil {
		t.Fatal("empty query should return nil")
	}
	if exactTopK(t, idx, s, NewQuery([]string{"a"}), 0) != nil {
		t.Fatal("k=0 should return nil")
	}
	if got := exactTopK(t, idx, s, NewQuery([]string{"zzz"}), 5); len(got) != 0 {
		t.Fatalf("unknown term hits = %v", got)
	}
	if got := exactTopK(t, idx, s, NewQuery([]string{"a"}), 100); len(got) != 1 {
		t.Fatalf("k > matches: %v", got)
	}
	if got := blockMax(t, idx, s, NewQuery([]string{"zzz"}), 5); got != nil {
		t.Fatalf("block-max unknown term: %v", got)
	}
}

func TestFuseEquation3(t *testing.T) {
	bow := []Hit{{Doc: 0, Score: 10}, {Doc: 1, Score: 5}}
	bon := []Hit{{Doc: 1, Score: 2}, {Doc: 2, Score: 1}}
	got := Fuse(bow, bon, 0.5, 10)
	// normalized: bow {0:1, 1:0.5}, bon {1:1, 2:0.5}
	want := []Hit{{Doc: 1, Score: 0.75}, {Doc: 0, Score: 0.5}, {Doc: 2, Score: 0.25}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Fuse = %v, want %v", got, want)
	}
}

func TestFuseBetaExtremes(t *testing.T) {
	bow := []Hit{{Doc: 0, Score: 10}, {Doc: 1, Score: 5}}
	bon := []Hit{{Doc: 2, Score: 4}}
	got0 := Fuse(bow, bon, 0, 10)
	if len(got0) != 2 || got0[0].Doc != 0 || got0[0].Score != 1 {
		t.Fatalf("beta=0: %v", got0)
	}
	got1 := Fuse(bow, bon, 1, 10)
	if len(got1) != 1 || got1[0].Doc != 2 {
		t.Fatalf("beta=1: %v", got1)
	}
}

// Property: for any beta in (0,1), the ranking order of Fuse equals the
// order of (1-beta)*nbow + beta*nbon computed by hand.
func TestFuseProperty(t *testing.T) {
	f := func(scores [6]uint8, betaRaw uint8) bool {
		beta := float64(betaRaw%99+1) / 100
		bow := []Hit{{0, float64(scores[0])}, {1, float64(scores[1])}, {2, float64(scores[2])}}
		bon := []Hit{{0, float64(scores[3])}, {1, float64(scores[4])}, {2, float64(scores[5])}}
		slices.SortFunc(bow, RankOrder)
		slices.SortFunc(bon, RankOrder)
		got := Fuse(bow, bon, beta, 3)
		maxBow := math.Max(math.Max(bow[0].Score, bow[1].Score), bow[2].Score)
		maxBon := math.Max(math.Max(bon[0].Score, bon[1].Score), bon[2].Score)
		expect := map[index.DocID]float64{}
		for _, h := range bow {
			s := h.Score
			if maxBow > 0 {
				s /= maxBow
			}
			expect[h.Doc] += (1 - beta) * s
		}
		for _, h := range bon {
			s := h.Score
			if maxBon > 0 {
				s /= maxBon
			}
			expect[h.Doc] += beta * s
		}
		for _, h := range got {
			if math.Abs(expect[h.Doc]-h.Score) > 1e-9 {
				return false
			}
		}
		for i := 1; i < len(got); i++ {
			if got[i].Score > got[i-1].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFuseClip(t *testing.T) {
	bow := []Hit{{0, 3}, {1, 2}, {2, 1}}
	if got := Fuse(bow, nil, 0.5, 2); len(got) != 2 {
		t.Fatalf("clip failed: %v", got)
	}
}

// TestTopKMatchesNaiveReference checks the whole retrieval stack against a
// from-first-principles reference scorer on randomized corpora.
func TestTopKMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	vocab := []string{"a", "b", "c", "d", "e", "f"}
	for trial := 0; trial < 25; trial++ {
		docs := make([][]string, 3+rng.Intn(40))
		for d := range docs {
			for i := 0; i <= rng.Intn(8); i++ {
				docs[d] = append(docs[d], vocab[rng.Intn(len(vocab))])
			}
		}
		b := index.NewBuilder()
		for _, d := range docs {
			add(b, d)
		}
		idx := b.Build()
		s := NewBM25(idx)
		var qterms []string
		for i := 0; i <= rng.Intn(3); i++ {
			qterms = append(qterms, vocab[rng.Intn(len(vocab))])
		}
		q := NewQuery(qterms)
		// Naive reference: score every document directly from its terms.
		type ds struct {
			doc   index.DocID
			score float64
		}
		var ref []ds
		for d := range docs {
			tf := map[string]float64{}
			for _, term := range docs[d] {
				tf[term]++
			}
			score := 0.0
			for term, qw := range q {
				if tf[term] > 0 {
					score += qw * s.Weight(tf[term], idx.DF(term), float64(len(docs[d])))
				}
			}
			if score > 0 {
				ref = append(ref, ds{index.DocID(d), score})
			}
		}
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].score != ref[j].score {
				return ref[i].score > ref[j].score
			}
			return ref[i].doc < ref[j].doc
		})
		k := 1 + rng.Intn(10)
		got := exactTopK(t, idx, s, q, k)
		want := ref
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d hits, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Doc != want[i].doc || math.Abs(got[i].Score-want[i].score) > 1e-9 {
				t.Fatalf("trial %d rank %d: %v vs reference %v", trial, i, got[i], want[i])
			}
		}
	}
}

// fuseReference is the map-accumulator fusion Fuse replaced: normalized
// copies of both rankings summed per document, BOW first, then sorted.
func fuseReference(bow, bon []Hit, beta float64, k int) []Hit {
	normalize := func(hits []Hit) []Hit {
		m := maxScore(hits)
		if len(hits) == 0 || m == 0 {
			return hits
		}
		out := make([]Hit, len(hits))
		for i, h := range hits {
			out[i] = Hit{h.Doc, h.Score / m}
		}
		return out
	}
	switch {
	case beta <= 0:
		return clip(normalize(bow), k)
	case beta >= 1:
		return clip(normalize(bon), k)
	}
	acc := map[index.DocID]float64{}
	for _, h := range normalize(bow) {
		acc[h.Doc] += (1 - beta) * h.Score
	}
	for _, h := range normalize(bon) {
		acc[h.Doc] += beta * h.Score
	}
	out := make([]Hit, 0, len(acc))
	for d, s := range acc {
		out = append(out, Hit{d, s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	return clip(out, k)
}

// mergeReference is the heap selection MergeTopK replaced.
func mergeReference(k int, lists ...[]Hit) []Hit {
	var h hitHeap
	for _, hits := range lists {
		for _, hit := range hits {
			pushTop(&h, hit, k)
		}
	}
	return drainHeap(h)
}

// TestFuseAndMergeMatchReferences: the allocation-lean Fuse and MergeTopK
// return exactly — bit for bit, order included — what the map and heap
// implementations they replaced returned, over random rankings with
// overlapping documents, tied scores, empty lists and every k.
func TestFuseAndMergeMatchReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ranking := func(n, docs int) []Hit {
		hits := make([]Hit, 0, n)
		for _, d := range rng.Perm(docs)[:n] {
			hits = append(hits, Hit{index.DocID(d), float64(rng.Intn(6)) * rng.Float64()})
		}
		slices.SortFunc(hits, RankOrder)
		return hits
	}
	for trial := 0; trial < 2000; trial++ {
		docs := 1 + rng.Intn(40)
		bow, bon := ranking(rng.Intn(docs+1), docs), ranking(rng.Intn(docs+1), docs)
		k := rng.Intn(docs+2) - 1
		for _, beta := range []float64{0, 0.2, 0.5, rng.Float64(), 1} {
			if got, want := Fuse(bow, bon, beta, k), fuseReference(bow, bon, beta, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("Fuse(%v, %v, %g, %d) = %v, want %v", bow, bon, beta, k, got, want)
			}
		}
		// Shard lists: disjoint document ranges, each in rank order.
		lists := make([][]Hit, rng.Intn(20))
		for i := range lists {
			lists[i] = ranking(rng.Intn(docs+1), docs)
			for j := range lists[i] {
				lists[i][j].Doc += index.DocID(i * docs)
			}
		}
		if k > 0 {
			if got, want := MergeTopK(k, lists...), mergeReference(k, lists...); !reflect.DeepEqual(got, want) {
				t.Fatalf("MergeTopK(%d, %v) = %v, want %v", k, lists, got, want)
			}
		}
	}
}

// TestFuseAndMergeAllocateOnlyTheResult: Fuse and MergeTopK allocate the
// slice they return and nothing else.
func TestFuseAndMergeAllocateOnlyTheResult(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var bow, bon []Hit
	for d := 0; d < 100; d++ {
		bow = append(bow, Hit{index.DocID(d), rng.Float64()})
		bon = append(bon, Hit{index.DocID(d + 50), rng.Float64()})
	}
	slices.SortFunc(bow, RankOrder)
	slices.SortFunc(bon, RankOrder)
	for _, beta := range []float64{0, 0.2, 1} {
		if n := testing.AllocsPerRun(20, func() { Fuse(bow, bon, beta, 20) }); n != 1 {
			t.Errorf("Fuse with beta %g allocates %v times, want 1", beta, n)
		}
	}
	if n := testing.AllocsPerRun(20, func() { MergeTopK(20, bow[:40], bow[40:70], bon) }); n != 1 {
		t.Errorf("MergeTopK allocates %v times, want 1", n)
	}
}
