package textembed

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestVectorOps(t *testing.T) {
	a := Vector{1, 0, 0}
	b := Vector{0, 1, 0}
	if Dot(a, b) != 0 {
		t.Fatal("orthogonal dot != 0")
	}
	if Cosine(a, a) != 1 {
		t.Fatalf("self cosine = %v", Cosine(a, a))
	}
	if Cosine(a, Vector{0, 0, 0}) != 0 {
		t.Fatal("zero vector cosine != 0")
	}
	v := Normalize(Vector{3, 4})
	if math.Abs(Norm(v)-1) > 1e-6 {
		t.Fatalf("normalize norm = %v", Norm(v))
	}
	z := Vector{0, 0}
	if got := Normalize(z); got[0] != 0 || got[1] != 0 {
		t.Fatal("zero vector normalize changed values")
	}
}

func TestCosineBounds(t *testing.T) {
	f := func(raw [6]int8) bool {
		a := Vector{float32(raw[0]), float32(raw[1]), float32(raw[2])}
		b := Vector{float32(raw[3]), float32(raw[4]), float32(raw[5])}
		c := Cosine(a, b)
		return c >= -1.0000001 && c <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexVectorDeterministic(t *testing.T) {
	a := make(Vector, 64)
	b := make(Vector, 64)
	indexVector(a, "taliban", 7, 8, 1)
	indexVector(b, "taliban", 7, 8, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("indexVector not deterministic")
	}
	c := make(Vector, 64)
	indexVector(c, "pakistan", 7, 8, 1)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different keys produced identical vectors")
	}
	d := make(Vector, 64)
	indexVector(d, "taliban", 8, 8, 1)
	if reflect.DeepEqual(a, d) {
		t.Fatal("different seeds produced identical vectors")
	}
}

func docs(lines ...string) [][]string {
	var out [][]string
	for _, l := range lines {
		out = append(out, strings.Fields(l))
	}
	return out
}

func trainToy(t *testing.T) *WordVectors {
	t.Helper()
	corpus := docs(
		"taliban attack bomb lahore army conflict",
		"taliban bomb blast army peshawar conflict",
		"taliban army fight insurgent bomb war",
		"election vote ballot candidate campaign poll",
		"election candidate debate vote poll victory",
		"vote ballot campaign election winner poll",
		"cricket match stadium team batsman score",
		"team match score cricket innings trophy",
	)
	return TrainWordVectors(corpus, WordVectorConfig{Dim: 128, Window: 3, Seed: 5, NNZ: 8})
}

func TestWordVectorsCaptureCooccurrence(t *testing.T) {
	wv := trainToy(t)
	simSame := Cosine(wv.Vector("taliban"), wv.Vector("bomb"))
	simCross := Cosine(wv.Vector("taliban"), wv.Vector("ballot"))
	if simSame <= simCross {
		t.Fatalf("co-occurring words not closer: same=%v cross=%v", simSame, simCross)
	}
	if wv.Vector("unseen-word") != nil {
		t.Fatal("unseen word should have nil vector")
	}
	if wv.VocabSize() == 0 {
		t.Fatal("empty vocab")
	}
}

func TestWordVectorsIDF(t *testing.T) {
	wv := TrainWordVectors(docs("a b", "a c", "a d"), WordVectorConfig{Dim: 32, Window: 2, Seed: 1, NNZ: 4})
	if wv.IDF("a") >= wv.IDF("b") {
		t.Fatal("frequent word should have lower idf")
	}
	if wv.IDF("zzz") < wv.IDF("b") {
		t.Fatal("unseen word should have max idf")
	}
}

func TestEmbedDocSimilarity(t *testing.T) {
	wv := trainToy(t)
	military := wv.EmbedDoc(strings.Fields("taliban bomb army"))
	military2 := wv.EmbedDoc(strings.Fields("conflict blast insurgent"))
	politics := wv.EmbedDoc(strings.Fields("election ballot vote"))
	if Cosine(military, military2) <= Cosine(military, politics) {
		t.Fatalf("topical similarity not captured: %v vs %v",
			Cosine(military, military2), Cosine(military, politics))
	}
	if math.Abs(Norm(military)-1) > 1e-5 {
		t.Fatalf("EmbedDoc not normalized: %v", Norm(military))
	}
	// Out-of-vocabulary inference must not be zero.
	oov := wv.EmbedDoc([]string{"completely", "novel", "words"})
	if Norm(oov) == 0 {
		t.Fatal("OOV doc embedded to zero")
	}
}

func TestTrainDeterministic(t *testing.T) {
	a := trainToy(t).EmbedDoc([]string{"taliban", "bomb"})
	b := trainToy(t).EmbedDoc([]string{"taliban", "bomb"})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("training not deterministic")
	}
}

func TestSBERTSurfaceSimilarity(t *testing.T) {
	s := NewSBERT(256)
	a := s.EncodeText("taliban militants bombed lahore")
	b := s.EncodeText("taliban militant bombing in lahore")
	c := s.EncodeText("quarterly earnings beat expectations")
	if Cosine(a, b) <= Cosine(a, c) {
		t.Fatalf("surface similarity not captured: %v vs %v", Cosine(a, b), Cosine(a, c))
	}
	if math.Abs(Norm(a)-1) > 1e-5 {
		t.Fatal("SBERT output not normalized")
	}
	if got := NewSBERT(0).Dim; got != 1024 {
		t.Fatalf("default dim = %d, want 1024", got)
	}
}

func TestFastTextJudge(t *testing.T) {
	wv := trainToy(t)
	ft := NewFastText(wv)
	a := ft.Embed(strings.Fields("taliban bomb army"))
	b := ft.Embed(strings.Fields("taliban blast conflict"))
	c := ft.Embed(strings.Fields("cricket match trophy"))
	if Cosine(a, b) <= Cosine(a, c) {
		t.Fatalf("judge does not separate topics: %v vs %v", Cosine(a, b), Cosine(a, c))
	}
	// Subword sensitivity: morphological variants stay close.
	d := ft.Embed([]string{"bombing"})
	e := ft.Embed([]string{"bomb"})
	f := ft.Embed([]string{"election"})
	if Cosine(d, e) <= Cosine(d, f) {
		t.Fatalf("subwords not captured: %v vs %v", Cosine(d, e), Cosine(d, f))
	}
}

func TestTopKCosine(t *testing.T) {
	corpus := []Vector{
		Normalize(Vector{1, 0}),
		Normalize(Vector{0.9, 0.1}),
		Normalize(Vector{0, 1}),
		Normalize(Vector{-1, 0}),
	}
	got := TopKCosine(corpus, Vector{1, 0}, 2)
	if len(got) != 2 || got[0].Idx != 0 || got[1].Idx != 1 {
		t.Fatalf("TopKCosine = %v", got)
	}
	if got[0].Score < got[1].Score {
		t.Fatal("not sorted")
	}
	if TopKCosine(corpus, Vector{1, 0}, 0) != nil {
		t.Fatal("k=0 should be nil")
	}
	if got := TopKCosine(corpus, Vector{1, 0}, 99); len(got) != len(corpus) {
		t.Fatalf("k>n returned %d", len(got))
	}
	if TopKCosine(nil, Vector{1}, 3) != nil {
		t.Fatal("empty corpus should be nil")
	}
}

func TestTopKCosineTies(t *testing.T) {
	corpus := []Vector{{1, 0}, {1, 0}, {1, 0}}
	got := TopKCosine(corpus, Vector{1, 0}, 2)
	if got[0].Idx != 0 || got[1].Idx != 1 {
		t.Fatalf("tie order = %v, want ascending idx", got)
	}
}
