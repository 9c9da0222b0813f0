package newslink

import (
	"context"
	"fmt"
	"strconv"

	"newslink/internal/index"
	"newslink/internal/nlp"
)

// Engine surface for the cluster tier (internal/cluster).
//
// A scatter-gather router reproduces searchContext's pipeline across
// shard-worker processes: it analyzes the query once (the router holds
// the knowledge graph, exactly like a single-process engine), reads global
// term statistics off the segment directories of the snapshot it owns,
// ships globally ordered terms out for local block-max evaluation, and
// merges. Workers evaluate
// against their engine's published index sources and materialize result
// documents by local position. These exports expose just those seams —
// analysis, index sources, positional document access and the snippet —
// without opening the engine's internals.

// AnalyzeQuery runs the engine's cache-backed query analysis and returns
// the analyzed text terms plus the node-term weights of the query's
// subgraph embedding — the same inputs searchContext feeds BOW and BON
// retrieval. A nil node map means the query embedded to nothing and BON
// retrieval does not apply. Analysis needs only the knowledge graph, so
// it works on an engine that indexed no documents (a router).
func (e *Engine) AnalyzeQuery(ctx context.Context, text string) (terms []string, nodeWeights map[string]float64, err error) {
	emb, terms, err := e.analyzeQuery(ctx, e.gs.Load(), text)
	if err != nil {
		return nil, nil, err
	}
	if emb != nil {
		nodeWeights = make(map[string]float64, len(emb.Counts))
		for n, c := range emb.Counts {
			nodeWeights[NodeTerm(uint64(n))] = float64(c)
		}
	}
	return terms, nodeWeights, nil
}

// NodeTerm converts a knowledge-graph node ID to the synthetic term under
// which the node index posts it (base-36, as nodeTerm). Router and
// workers must agree on this encoding, so it is part of the public
// surface.
func NodeTerm(id uint64) string { return strconv.FormatUint(id, 36) }

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
// document). The router resolves once per request and ships the term sets
// to workers, so every shard filters by exactly the terms the router's
// graph resolved, and the composed facet equals a single process's.
func (e *Engine) EntityTerms(labels []string) [][]string {
	return entityTerms(e.Graph(), labels)
}

// FilteredSources is Sources with the request's filter clauses compiled
// into the returned sources: documents outside the inclusive [after,
// before] time range (0 = unbounded) or failing the entity must-match
// facet (term sets from EntityTerms, conjunctive across sets) are masked
// from retrieval through the same live seam as tombstones. Statistics
// stay those of the full local corpus — matching the unfiltered global
// statistics the router scores with — so filtered shard rankings compose
// exactly. With no clauses set it returns the raw sources.
func (e *Engine) FilteredSources(after, before int64, entities [][]string) (text, node index.Source, err error) {
	snap, err := e.acquire()
	if err != nil {
		return nil, nil, err
	}
	flt, err := newQueryFilter(snap, after, before, entities, -1)
	if err != nil {
		return nil, nil, err
	}
	text, node = snap.sources(flt)
	return text, node, nil
}

// DocVisible reports whether the live document with public ID docID
// survives the given filter clauses — the check a shard worker runs
// before explaining a document under a filtered request, so a filtered
// Explain can never produce evidence for a document the same filtered
// Search would not return. Unknown and tombstoned IDs are not visible.
func (e *Engine) DocVisible(docID int, after, before int64, entities [][]string) (bool, error) {
	snap, err := e.acquire()
	if err != nil {
		return false, err
	}
	pos, err := e.lookup(snap, docID)
	if err != nil {
		return false, nil
	}
	flt, err := newQueryFilter(snap, after, before, entities, -1)
	if err != nil {
		return false, err
	}
	return flt == nil || flt.Keep(index.DocID(pos)), nil
}

// DocAt returns the document at a global position within the engine's
// published set, tombstoned or not. Position is the coordinate the index
// sources use (search.Hit.Doc), which is what a worker reports to the
// router and the router echoes back to fetch result documents.
func (e *Engine) DocAt(pos int) (Document, error) {
	snap, err := e.acquire()
	if err != nil {
		return Document{}, err
	}
	if pos < 0 || pos >= snap.numDocs {
		return Document{}, fmt.Errorf("%w: position %d of %d", ErrUnknownDoc, pos, snap.numDocs)
	}
	return snap.doc(pos), nil
}

// Snippet picks the sentence of text with the highest query-term overlap
// (the first one on ties, "" when nothing overlaps) — the keyword-in-context
// preview search UIs show, exactly as the engine's own result
// materialization computes it. A loop over many documents compiles the
// terms once with nlp.NewTermSet and calls BestSentence per document.
func Snippet(text string, qTerms []string) string {
	return nlp.NewTermSet(qTerms).BestSentence(text)
}
