package newslink

import (
	"context"
	"fmt"

	"newslink/internal/core"
	"newslink/internal/index"
	"newslink/internal/kg"
	"newslink/internal/obs"
)

// Explain computes the intuitive evidence for why document docID is related
// to the query: the overlap of their subgraph embeddings and up to maxPaths
// relationship paths through it.
func (e *Engine) Explain(query string, docID int, maxPaths int) (Explanation, error) {
	return e.ExplainContext(context.Background(), query, docID, maxPaths)
}

// ExplainContext is Explain with cooperative cancellation: path enumeration
// between entity pairs stops and returns ctx.Err() once ctx is done.
//
// When ctx carries a trace (obs.WithTrace), the analyze and
// path-enumeration stages record spans with pair/path counts, mirroring
// SearchContext's stage breakdown.
func (e *Engine) ExplainContext(ctx context.Context, query string, docID int, maxPaths int) (Explanation, error) {
	return e.ExplainQueryContext(ctx, Query{Text: query}, docID, maxPaths)
}

// ExplainQueryContext is ExplainContext for a full Query: the explanation
// honours the request's filters (After/Before/Entities; K/PoolDepth/Beta
// are ignored — an explanation has no ranking), so a document the
// filtered Search would never return cannot be explained either — it
// returns ErrUnknownDoc, exactly like a tombstoned document.
func (e *Engine) ExplainQueryContext(ctx context.Context, q Query, docID int, maxPaths int) (Explanation, error) {
	exp, err := e.explainContext(ctx, q, docID, maxPaths)
	e.met.explains.Inc()
	if err != nil {
		e.met.explainErrors.Inc()
	}
	return exp, err
}

func (e *Engine) explainContext(ctx context.Context, q Query, docID int, maxPaths int) (Explanation, error) {
	if err := ctx.Err(); err != nil {
		return Explanation{}, err
	}
	snap, err := e.acquire()
	if err != nil {
		return Explanation{}, err
	}
	pos, err := e.lookup(snap, docID)
	if err != nil {
		return Explanation{}, err
	}
	g := e.Graph()
	flt, err := newQueryFilter(snap, q.After, q.Before, entityTerms(g, q.Entities))
	if err != nil {
		return Explanation{}, err
	}
	if flt != nil && !flt.Keep(index.DocID(pos)) {
		return Explanation{}, fmt.Errorf("%w: %d", ErrUnknownDoc, docID)
	}
	qEmb, _, err := e.analyzeQuery(ctx, q.Text)
	if err != nil {
		return Explanation{}, err
	}
	dEmb, err := e.docEmbedding(snap, pos)
	if err != nil || qEmb == nil || dEmb == nil {
		return Explanation{}, err
	}
	var exp Explanation
	for _, n := range qEmb.Overlap(dEmb) {
		exp.SharedEntities = append(exp.SharedEntities, g.Label(n))
	}
	sp := obs.FromContext(ctx).Start(obs.StagePaths)
	paths, pairs, err := enumeratePaths(ctx, g, qEmb, dEmb, maxPaths)
	d := sp.End(obs.Int("pairs", pairs), obs.Int("paths", len(paths)), obs.Int("shared_entities", len(exp.SharedEntities)))
	e.met.stageObserve(obs.StagePaths, d)
	if err != nil {
		return Explanation{}, err
	}
	exp.Paths = paths
	return exp, nil
}

// enumeratePaths links every query label to every result label through g
// until maxPaths relationship paths are collected, shortest pairs first.
// It returns the paths and the number of label pairs actually explored.
func enumeratePaths(ctx context.Context, g *kg.Graph, qEmb, dEmb *core.DocEmbedding, maxPaths int) ([]Path, int, error) {
	qLabels := embeddingLabels(qEmb)
	dLabels := embeddingLabels(dEmb)
	var out []Path
	pairs := 0
	seen := map[string]bool{}
	seenPair := map[[2]string]bool{}
	for _, ql := range qLabels {
		if err := ctx.Err(); err != nil {
			return nil, pairs, err
		}
		for _, dl := range dLabels {
			if len(out) >= maxPaths {
				return out, pairs, nil
			}
			if ql == dl {
				continue
			}
			// A label can occur in both embeddings; visit each unordered
			// pair once so mirror-image paths are not reported twice.
			pairKey := [2]string{ql, dl}
			if dl < ql {
				pairKey = [2]string{dl, ql}
			}
			if seenPair[pairKey] {
				continue
			}
			seenPair[pairKey] = true
			pairs++
			paths, err := core.CrossPathsContext(ctx, g, qEmb, dEmb, ql, dl, 1)
			if err != nil {
				return nil, pairs, err
			}
			for _, p := range paths {
				r := p.Render(g)
				if r != "" && !seen[r] {
					seen[r] = true
					out = append(out, makePath(g, p, r))
				}
				if len(out) >= maxPaths {
					return out, pairs, nil
				}
			}
		}
	}
	return out, pairs, nil
}

// makePath converts an internal relationship path into the public form.
func makePath(g *kg.Graph, p core.RelPath, rendered string) Path {
	out := Path{Rendered: rendered}
	if len(p.Hops) == 0 {
		return out
	}
	out.Nodes = append(out.Nodes, g.Label(p.Hops[0].From))
	for _, h := range p.Hops {
		out.Nodes = append(out.Nodes, g.Label(h.To))
		out.Relations = append(out.Relations, g.RelName(h.Rel))
	}
	return out
}

// ExplainDOT renders the query's and the document's subgraph embeddings as
// a Graphviz digraph in the style of the paper's Figure 1: one color per
// embedding, overlap nodes filled orange, subgraph roots boxed. Render with
// `dot -Tsvg`. An empty string is returned when either side has no
// embedding.
func (e *Engine) ExplainDOT(query string, docID int, title string) (string, error) {
	return e.ExplainDOTContext(context.Background(), query, docID, title)
}

// ExplainDOTContext is ExplainDOT with a cancellable context.
func (e *Engine) ExplainDOTContext(ctx context.Context, query string, docID int, title string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	snap, err := e.acquire()
	if err != nil {
		return "", err
	}
	pos, err := e.lookup(snap, docID)
	if err != nil {
		return "", err
	}
	qEmb, _, err := e.analyzeQuery(ctx, query)
	if err != nil {
		return "", err
	}
	dEmb, err := e.docEmbedding(snap, pos)
	if err != nil || qEmb == nil || dEmb == nil {
		return "", err
	}
	return core.DOT(e.Graph(), title, qEmb, dEmb), nil
}

// embeddingLabels returns the distinct entity labels a document embedding
// was built from, in deterministic order.
func embeddingLabels(emb *core.DocEmbedding) []string {
	seen := map[string]bool{}
	var out []string
	for _, sg := range emb.Subgraphs {
		for _, l := range sg.Labels {
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	return out
}
