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
	// More shard lists than MergeTopK has fixed heads for.
	var lists [][]Hit
	for d := range 20 {
		lists = append(lists, []Hit{{index.DocID(d), float64(d % 3)}})
	}
	if got, want := MergeTopK(5, lists...), []Hit{{2, 2}, {5, 2}, {8, 2}, {11, 2}, {14, 2}}; !slices.Equal(got, want) {
		t.Fatalf("MergeTopK over 20 lists = %v, want %v", got, want)
	}
}

// TestSelectMatchesSort: the one selection of the read path equals a full
// RankOrder sort clipped to k — on heavy score ties, on inputs already in
// rank order, in reverse and all equal, for every length up to 300 and k
// at, around and inside its edges — and unsorted, it still leaves the k
// best in front with the k-th best at k-1, which is all the kernel's
// threshold refresh reads.
func TestSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	shapes := []struct {
		name string
		gen  func(n int) []Hit
	}{
		{"ties", func(n int) []Hit {
			hits := make([]Hit, n)
			for i, d := range rng.Perm(n) {
				hits[i] = Hit{index.DocID(d), []float64{0.5, 1, 2}[rng.Intn(3)]}
			}
			return hits
		}},
		{"ascending", func(n int) []Hit {
			hits := make([]Hit, n)
			for i := range hits {
				hits[i] = Hit{index.DocID(i), float64(i)}
			}
			return hits
		}},
		{"descending", func(n int) []Hit {
			hits := make([]Hit, n)
			for i := range hits {
				hits[i] = Hit{index.DocID(n - i), float64(n - i)}
			}
			return hits
		}},
		{"equal-scores", func(n int) []Hit {
			hits := make([]Hit, n)
			for i, d := range rng.Perm(n) {
				hits[i] = Hit{index.DocID(d), 1}
			}
			return hits
		}},
		{"identical", func(n int) []Hit {
			hits := make([]Hit, n)
			for i := range hits {
				hits[i] = Hit{7, 1}
			}
			return hits
		}},
	}
	for _, shape := range shapes {
		for n := 0; n <= 300; n++ {
			in := shape.gen(n)
			want := slices.Clone(in)
			slices.SortFunc(want, RankOrder)
			for _, k := range []int{-1, 0, 1, n / 2, rng.Intn(n + 1), n - 1, n, n + 7} {
				if got := topHits(slices.Clone(in), k, true); !slices.Equal(got, clip(want, k)) {
					t.Fatalf("%s n=%d k=%d: topHits = %v, want %v", shape.name, n, k, got, clip(want, k))
				}
				front := topHits(slices.Clone(in), k, false)
				if len(front) > 0 && front[len(front)-1] != want[len(front)-1] {
					t.Fatalf("%s n=%d k=%d: unsorted topHits put %v last, want %v", shape.name, n, k, front[len(front)-1], want[len(front)-1])
				}
				slices.SortFunc(front, RankOrder)
				if !slices.Equal(front, clip(want, k)) {
					t.Fatalf("%s n=%d k=%d: unsorted topHits = %v, want %v", shape.name, n, k, front, clip(want, k))
				}
			}
		}
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
	if got := Fuse(bow, nil, 0.5, -1); len(got) != 3 {
		t.Fatalf("a negative k clipped: %v", got)
	}
	// An all-zero ranking is not scaled: its hits keep their zero share.
	if got, want := Fuse([]Hit{{0, 0}}, []Hit{{1, 2}}, 0.5, 5), []Hit{{1, 0.5}, {0, 0}}; !slices.Equal(got, want) {
		t.Fatalf("Fuse with an all-zero leg = %v, want %v", got, want)
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
