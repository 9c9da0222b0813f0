// Package qeprf implements the KG-powered query-expansion baseline of the
// paper (Xiong & Callan, "Query Expansion with Freebase", ICTIR'15 — the
// unsupervised variant the paper evaluates as QEPRF): queries are expanded
// with terms from the descriptions of linked KG entities and re-ranked with
// a pseudo-relevance-feedback pass over the top retrieved documents.
package qeprf

import (
	"sort"
	"strings"

	"newslink/internal/index"
	"newslink/internal/kg"
	"newslink/internal/nlp"
	"newslink/internal/search"
)

// Config holds the expansion and feedback parameters.
type Config struct {
	// KGTerms is the maximum number of expansion terms drawn from entity
	// descriptions.
	KGTerms int
	// KGWeight is the query weight of each KG expansion term relative to an
	// original query term (weight 1).
	KGWeight float64
	// FeedbackDocs is the number of top-ranked documents used for PRF.
	FeedbackDocs int
	// FeedbackTerms is the number of expansion terms drawn from them.
	FeedbackTerms int
	// FeedbackWeight is the query weight of each PRF term.
	FeedbackWeight float64
}

// DefaultConfig mirrors common unsupervised QE settings.
func DefaultConfig() Config {
	return Config{
		KGTerms:        10,
		KGWeight:       0.4,
		FeedbackDocs:   10,
		FeedbackTerms:  15,
		FeedbackWeight: 0.3,
	}
}

// Engine runs QEPRF searches over a text index.
type Engine struct {
	G        *kg.Graph
	Pipeline *nlp.Pipeline
	Idx      *index.Index
	DocTerms [][]string // analyzed terms per indexed document, for PRF
	Cfg      Config
}

// New returns a QEPRF engine. docTerms must be aligned with the index's
// DocIDs.
func New(g *kg.Graph, idx *index.Index, docTerms [][]string, cfg Config) *Engine {
	return &Engine{
		G:        g,
		Pipeline: nlp.NewPipeline(g.Index()),
		Idx:      idx,
		DocTerms: docTerms,
		Cfg:      cfg,
	}
}

// Search retrieves the top k documents for the query text.
func (e *Engine) Search(query string, k int) ([]search.Hit, error) {
	scorer := search.NewBM25(e.Idx)
	q := search.NewQuery(nlp.Terms(query))
	// Phase 1: KG expansion from linked entity descriptions.
	for term, w := range e.kgExpansion(query) {
		q[term] += w
	}
	// Phase 2: initial retrieval, then PRF re-ranking.
	pool := k + e.Cfg.FeedbackDocs
	initial, err := search.TopK(e.Idx, scorer, q, pool)
	if err != nil {
		return nil, err
	}
	for term, w := range e.prfExpansion(initial) {
		q[term] += w
	}
	return search.TopK(e.Idx, scorer, q, k)
}

// kgExpansion links entities in the query and extracts description terms:
// the node's Desc plus the labels of its direct neighbors (the synthetic
// KG's equivalent of Freebase descriptions).
func (e *Engine) kgExpansion(query string) map[string]float64 {
	if e.Cfg.KGTerms <= 0 {
		return nil
	}
	doc := e.Pipeline.Process(query)
	counts := make(map[string]float64)
	for _, s := range doc.Sentences {
		for _, label := range s.Labels() {
			for _, node := range e.G.Lookup(label) {
				var sb strings.Builder
				sb.WriteString(e.G.Node(node).Desc)
				for _, to := range e.G.Targets(node)[:min(e.G.Degree(node), 8)] {
					sb.WriteByte(' ')
					sb.WriteString(e.G.Label(to))
				}
				for _, t := range nlp.Terms(sb.String()) {
					counts[t]++
				}
			}
		}
	}
	return topWeighted(counts, e.Cfg.KGTerms, e.Cfg.KGWeight)
}

// prfExpansion scores terms of the feedback documents by their total BM25
// contribution and returns the best ones.
func (e *Engine) prfExpansion(initial []search.Hit) map[string]float64 {
	if e.Cfg.FeedbackDocs <= 0 || e.Cfg.FeedbackTerms <= 0 {
		return nil
	}
	n := e.Cfg.FeedbackDocs
	if n > len(initial) {
		n = len(initial)
	}
	scorer := search.NewBM25(e.Idx)
	scores := make(map[string]float64)
	for _, h := range initial[:n] {
		if int(h.Doc) >= len(e.DocTerms) {
			continue
		}
		tf := make(map[string]float64)
		for _, t := range e.DocTerms[h.Doc] {
			tf[t]++
		}
		for term, f := range tf {
			scores[term] += scorer.Weight(f, e.Idx.DF(term), e.Idx.DocLen(h.Doc))
		}
	}
	return topWeighted(scores, e.Cfg.FeedbackTerms, e.Cfg.FeedbackWeight)
}

// topWeighted keeps the n highest-scoring terms, each at weight w.
func topWeighted(scores map[string]float64, n int, w float64) map[string]float64 {
	type ts struct {
		t string
		s float64
	}
	all := make([]ts, 0, len(scores))
	for t, s := range scores {
		all = append(all, ts{t, s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].s != all[j].s {
			return all[i].s > all[j].s
		}
		return all[i].t < all[j].t
	})
	if n > len(all) {
		n = len(all)
	}
	out := make(map[string]float64, n)
	for _, x := range all[:n] {
		out[x.t] = w
	}
	return out
}
