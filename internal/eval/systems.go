package eval

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"newslink"
	"newslink/internal/corpus"
	"newslink/internal/index"
	"newslink/internal/lda"
	"newslink/internal/nlp"
	"newslink/internal/qeprf"
	"newslink/internal/search"
	"newslink/internal/textembed"
)

// --- NewsLink ---

// NewsLinkSystem adapts the public engine to the evaluation harness.
type NewsLinkSystem struct {
	name   string
	engine *newslink.Engine
}

// NewNewsLink indexes the dataset with the given fusion weight and
// embedding model (LCAG for NewsLink(β), TreeEmb for the Table VII
// baseline).
func NewNewsLink(d *Dataset, beta float64, model newslink.EmbeddingModel) *NewsLinkSystem {
	cfg := newslink.DefaultConfig()
	cfg.Beta = beta
	cfg.Model = model
	e := newslink.New(d.World.Graph, cfg)
	for _, a := range d.Articles {
		if err := e.Add(newslink.Document{ID: a.ID, Title: a.Title, Text: a.Text}); err != nil {
			panic(err) // Add only fails after Build; a bug, not an input error
		}
	}
	if err := e.Build(); err != nil {
		panic(err)
	}
	name := fmt.Sprintf("NewsLink(%.1f)", beta)
	if model == newslink.TreeEmb {
		name = fmt.Sprintf("TreeEmb(%.1f)", beta)
	}
	return &NewsLinkSystem{name: name, engine: e}
}

// Name implements System.
func (s *NewsLinkSystem) Name() string { return s.name }

// Engine exposes the wrapped engine (for explanation-based experiments).
func (s *NewsLinkSystem) Engine() *newslink.Engine { return s.engine }

// Search implements System.
func (s *NewsLinkSystem) Search(query string, k int) []int {
	res, err := s.engine.Search(query, k)
	if err != nil {
		return nil
	}
	out := make([]int, len(res))
	for i, r := range res {
		out[i] = r.ID
	}
	return out
}

// --- Lucene (BM25 over BOW) ---

// LuceneSystem is the Apache Lucene baseline: BM25 with default parameters
// over the text inverted index.
type LuceneSystem struct {
	idx *index.Index
}

// NewLucene indexes the dataset's text.
func NewLucene(d *Dataset) *LuceneSystem {
	return &LuceneSystem{idx: textIndex(d.AllTexts())}
}

// textIndex indexes analyzed texts through a sorted copy of each, so the
// texts stay in document order for the systems that share them (QEPRF's
// feedback, LDA).
func textIndex(texts [][]string) *index.Index {
	b := index.NewBuilder()
	for _, terms := range texts {
		sorted := slices.Clone(terms)
		sort.Strings(sorted)
		b.Add(sorted)
	}
	return b.Build()
}

// topK ranks an in-memory index with default BM25 through the engine's
// block-max kernel. The error is dropped: it can only report a cancelled
// context or a disk read, and neither exists here.
func topK(idx *index.Index, q search.Query, k int) []search.Hit {
	hits, _, _ := search.TopKBlockMaxStats(context.Background(), idx, search.NewBM25(idx), q, k)
	return hits
}

// Name implements System.
func (s *LuceneSystem) Name() string { return "Lucene" }

// Search implements System.
func (s *LuceneSystem) Search(query string, k int) []int {
	hits := topK(s.idx, search.NewQuery(nlp.Terms(query)), k)
	out := make([]int, len(hits))
	for i, h := range hits {
		out[i] = int(h.Doc)
	}
	return out
}

// --- DOC2VEC ---

// Doc2VecSystem embeds documents with corpus-trained distributional word
// vectors (the DOC2VEC substitute, 500 dimensions as in the paper).
type Doc2VecSystem struct {
	wv   *textembed.WordVectors
	vecs []textembed.Vector
}

// NewDoc2Vec trains on the training split and infers vectors for the whole
// corpus, as the paper does.
func NewDoc2Vec(d *Dataset) *Doc2VecSystem {
	wv := textembed.TrainWordVectors(d.TrainTexts(),
		textembed.WordVectorConfig{Dim: 500, Window: 5, Seed: d.Spec.Seed + 11, NNZ: 8})
	s := &Doc2VecSystem{wv: wv}
	for _, terms := range d.AllTexts() {
		s.vecs = append(s.vecs, wv.EmbedDoc(terms))
	}
	return s
}

// Name implements System.
func (s *Doc2VecSystem) Name() string { return "DOC2VEC" }

// Search implements System.
func (s *Doc2VecSystem) Search(query string, k int) []int {
	q := s.wv.EmbedDoc(nlp.Terms(query))
	return neighborsToIDs(textembed.TopKCosine(s.vecs, q, k))
}

// --- SBERT ---

// SBERTSystem embeds documents with the pretrained-style character-n-gram
// encoder (1024 dimensions as in the paper's bert-large-nli-mean-tokens).
type SBERTSystem struct {
	enc  *textembed.SBERT
	vecs []textembed.Vector
}

// NewSBERT encodes the whole corpus.
func NewSBERT(d *Dataset) *SBERTSystem {
	s := &SBERTSystem{enc: textembed.NewSBERT(1024)}
	for _, terms := range d.AllTexts() {
		s.vecs = append(s.vecs, s.enc.Encode(terms))
	}
	return s
}

// Name implements System.
func (s *SBERTSystem) Name() string { return "SBERT" }

// Search implements System.
func (s *SBERTSystem) Search(query string, k int) []int {
	return neighborsToIDs(textembed.TopKCosine(s.vecs, s.enc.Encode(nlp.Terms(query)), k))
}

// --- LDA ---

// LDASystem ranks by cosine similarity of topic mixtures.
type LDASystem struct {
	model *lda.Model
	mixes [][]float64
	seed  int64
}

// NewLDA trains on the training split (the paper uses 500 topics on 90k
// docs; topics scale with the corpus here).
func NewLDA(d *Dataset, topics int) *LDASystem {
	cfg := lda.DefaultConfig(topics, d.Spec.Seed+23)
	m, err := lda.Train(d.TrainTexts(), cfg)
	if err != nil {
		panic(err) // config is internal; an error here is a bug
	}
	s := &LDASystem{model: m, seed: d.Spec.Seed + 31}
	for i, terms := range d.AllTexts() {
		s.mixes = append(s.mixes, m.Infer(terms, 30, s.seed+int64(i)))
	}
	return s
}

// Name implements System.
func (s *LDASystem) Name() string { return "LDA" }

// Search implements System.
func (s *LDASystem) Search(query string, k int) []int {
	q := s.model.Infer(nlp.Terms(query), 30, s.seed)
	type scored struct {
		id int
		v  float64
	}
	best := make([]scored, 0, k+1)
	for i, mix := range s.mixes {
		v := lda.CosineTopics(q, mix)
		if len(best) == k && v <= best[k-1].v {
			continue
		}
		pos := len(best)
		for pos > 0 && best[pos-1].v < v {
			pos--
		}
		best = append(best, scored{})
		copy(best[pos+1:], best[pos:])
		best[pos] = scored{i, v}
		if len(best) > k {
			best = best[:k]
		}
	}
	out := make([]int, len(best))
	for i, b := range best {
		out[i] = b.id
	}
	return out
}

// --- QEPRF ---

// QEPRFSystem is the KG query-expansion baseline.
type QEPRFSystem struct {
	eng *qeprf.Engine
}

// NewQEPRF indexes the dataset and wires the expansion engine.
func NewQEPRF(d *Dataset) *QEPRFSystem {
	texts := d.AllTexts()
	return &QEPRFSystem{eng: qeprf.New(d.World.Graph, textIndex(texts), texts, qeprf.DefaultConfig())}
}

// Name implements System.
func (s *QEPRFSystem) Name() string { return "QEPRF" }

// Search implements System.
func (s *QEPRFSystem) Search(query string, k int) []int {
	hits, err := s.eng.Search(query, k)
	if err != nil {
		return nil
	}
	out := make([]int, len(hits))
	for i, h := range hits {
		out[i] = int(h.Doc)
	}
	return out
}

func neighborsToIDs(ns []textembed.Neighbor) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n.Idx
	}
	return out
}

// assertArticlesAligned documents the invariant systems rely on: article ID
// equals its position in Dataset.Articles.
func assertArticlesAligned(arts []corpus.Article) {
	for i, a := range arts {
		if a.ID != i {
			panic(fmt.Sprintf("eval: article %d has ID %d; IDs must be positional", i, a.ID))
		}
	}
}
