package newslink

import (
	"context"
	"fmt"

	"newslink/internal/index"
	"newslink/internal/kg"
	"newslink/internal/nlp"
)

// Engine surface for the cluster tier (internal/cluster) and the
// benchmark.
//
// A cluster router is an engine over the whole snapshot (LoadRouted): it
// analyzes, fuses, gathers documents and snippets, relates and explains
// exactly as a single process does, because it is one. Only the postings
// traversals of a request (Traversal) leave it: the router reads the
// statistics of whichever shards are live off SegmentIndexes, ships
// globally ordered terms to the shard workers — which hold nothing but
// postings (LoadSegments) — and merges their candidate lists. The other
// exports here expose the single-process pipeline's steps one by one —
// analysis, index sources, positional document access and the snippet —
// for per-layer measurement.

// LoadRouted restores the snapshot at dir as Load does, for an engine
// whose postings traversals run elsewhere: every search and
// related-news request hands its Traversal to traverse instead of reading
// a posting, and runs everything before and after it locally. The engine
// is read-only: writes and Compact fail with ErrReadOnly.
func LoadRouted(dir string, g *kg.Graph, traverse func(context.Context, Traversal) (Retrieval, error)) (*Engine, error) {
	e, err := Load(dir, g)
	if err != nil {
		return nil, err
	}
	e.remote = traverse
	return e, nil
}

// SegmentIndexes returns the text and node index of every published
// segment, in position order. index.NewMulti over any run of them is the
// very object a single process over those segments scores against, so a
// router derives the statistics of its live shards from them.
func (e *Engine) SegmentIndexes() (text, node []*index.Index) {
	s := e.set.Load()
	if s == nil {
		return nil, nil
	}
	for _, seg := range s.segs {
		text, node = append(text, seg.text), append(node, seg.node)
	}
	return text, node
}

// AnalyzeQuery runs the engine's cache-backed query analysis and returns
// the analyzed text terms plus the node-term weights of the query's
// subgraph embedding — the same inputs searchContext feeds BOW and BON
// retrieval. A nil node map means the query embedded to nothing and BON
// retrieval does not apply.
func (e *Engine) AnalyzeQuery(ctx context.Context, text string) (terms []string, nodes map[string]float64, err error) {
	emb, terms, err := e.analyzeQuery(ctx, text)
	if err != nil {
		return nil, nil, err
	}
	if emb != nil {
		nodes = nodeQuery(make(map[string]float64, len(emb.Counts)), emb)
	}
	return terms, nodes, nil
}

// Sources returns the engine's published text and node index sources for
// one read operation. The sources are immutable snapshots — refreshes
// and merges publish new sets rather than mutating these — so a caller
// may traverse them lock-free for the duration of a request.
func (e *Engine) Sources() (text, node index.Source, err error) {
	return e.FilteredSources(0, 0, nil)
}

// EntityTerms resolves entity-facet labels against the knowledge graph:
// labels[i] becomes the node-index terms of every node the folded label
// maps to (empty when the label resolves to nothing — it then matches no
// document), the term sets Traversal.Entities and FilteredSources take.
func (e *Engine) EntityTerms(labels []string) [][]string {
	return entityTerms(e.Graph(), labels)
}

// FilteredSources is Sources with the request's filter clauses compiled
// into the returned sources: documents outside the inclusive [after,
// before] time range (0 = unbounded) or failing the entity must-match
// facet (term sets from EntityTerms, conjunctive across sets) are masked
// from retrieval through the same live seam as tombstones. Statistics
// stay those of the full corpus. With no clauses set it returns the raw
// sources.
func (e *Engine) FilteredSources(after, before int64, entities [][]string) (text, node index.Source, err error) {
	snap, err := e.acquire()
	if err != nil {
		return nil, nil, err
	}
	return snap.filteredSources(after, before, entities)
}

// DocAt returns the document at a global position within the engine's
// published set, tombstoned or not. Position is the coordinate the index
// sources use (search.Hit.Doc).
func (e *Engine) DocAt(pos int) (doc Document, err error) {
	snap, err := e.acquire()
	if err != nil {
		return Document{}, err
	}
	if pos < 0 || pos >= snap.numDocs {
		return Document{}, fmt.Errorf("%w: position %d of %d", ErrUnknownDoc, pos, snap.numDocs)
	}
	return snap.doc(pos)
}

// Snippet picks the sentence of text with the highest query-term overlap
// (the first one on ties, "" when nothing overlaps) — the keyword-in-context
// preview search UIs show, exactly as the engine's own result
// materialization computes it. A loop over many documents compiles the
// terms once with nlp.NewTermSet and calls BestSentence per document.
func Snippet(text string, qTerms []string) string {
	return nlp.NewTermSet(qTerms).BestSentence(text)
}
