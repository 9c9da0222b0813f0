package newslink

import (
	"context"
	"fmt"
	"slices"

	"newslink/internal/search"
)

// Related-news search: rank the corpus against one indexed document,
// using its subgraph embedding as the query vector ("Content based News
// Recommendation via Shortest Entity Distance over Knowledge Graphs" ranks
// by entity-graph distance; NewsLink's BON leg is the same signal in
// Equation 3's fusion frame, so Related is a pure-BON (β = 1) search whose
// query embedding is the source document's own, re-derived from its stored
// text through the indexing path — no query cache — rather than from a
// query text).

// RelatedQuery is one related-news request for RelatedContext. DocID and K
// are required; zero values of the remaining fields select the engine's
// defaults, exactly as in Query.
type RelatedQuery struct {
	// DocID is the document whose related news to find (must be live).
	DocID int
	// K is the number of results to return (required, > 0).
	K int
	// PoolDepth overrides Config.PoolDepth for this request (0 = engine
	// default), with the same clamping as Query.PoolDepth.
	PoolDepth int
	// After/Before/Entities filter candidates exactly as in Query. The
	// source document itself is never a result.
	After    int64
	Before   int64
	Entities []string
}

// Related returns the k documents most related to docID by subgraph
// (BON) similarity. It is RelatedContext with a background context and
// default parameters.
func (e *Engine) Related(docID, k int) ([]Result, error) {
	return e.RelatedContext(context.Background(), RelatedQuery{DocID: docID, K: k})
}

// RelatedContext executes one related-news request. The source document's
// embedding, re-derived from its text, is the query vector; results are
// ranked by the engine's BON scorer, max-normalized into (0,1] like every
// other ranking, and never include the source document. A tombstoned or
// never-added DocID returns ErrUnknownDoc; a document that embedded to
// nothing has no graph neighbourhood and returns empty results. Unlike
// fused search there is no BOW leg to degrade to, so retrieval and
// document read errors fail the request.
//
// When ctx carries a trace (obs.WithTrace), the BON retrieval stage
// records its span with the usual pruning attributes.
func (e *Engine) RelatedContext(ctx context.Context, q RelatedQuery) ([]Result, error) {
	resp, err := e.RelatedContextFull(ctx, q)
	return resp.Results, err
}

// RelatedContextFull is RelatedContext returning the full response
// envelope. Only a cluster router's engine ever fills its degradation
// fields: with a shard down, the ranking covers the live shards' documents
// and says so.
func (e *Engine) RelatedContextFull(ctx context.Context, q RelatedQuery) (SearchResponse, error) {
	resp, err := e.relatedContext(ctx, q)
	e.met.relateds.Inc()
	if err != nil {
		e.met.relatedErrors.Inc()
	}
	return resp, err
}

func (e *Engine) relatedContext(ctx context.Context, q RelatedQuery) (SearchResponse, error) {
	if err := ctx.Err(); err != nil {
		return SearchResponse{}, err
	}
	if q.K <= 0 {
		return SearchResponse{}, fmt.Errorf("%w: %d", ErrInvalidK, q.K)
	}
	snap, err := e.acquire()
	if err != nil {
		return SearchResponse{}, err
	}
	pos, err := e.lookup(snap, q.DocID)
	if err != nil {
		return SearchResponse{}, err
	}
	emb, err := e.docEmbedding(snap, pos)
	if err != nil || emb == nil || len(emb.Counts) == 0 {
		return SearchResponse{}, err
	}
	// The source document ranks against itself like any other: ask one
	// candidate deeper and drop it. The traversal returns the exact top of
	// one total order, local or routed, so the top pool of the rest is what
	// remains.
	pool := e.pool(snap, q.PoolDepth, q.K)
	ret, err := e.retrieve(ctx, snap, Traversal{
		Pool:     pool + 1,
		After:    q.After,
		Before:   q.Before,
		Entities: entityTerms(e.Graph(), q.Entities),
	}, false, nil, emb)
	if err != nil {
		return SearchResponse{}, err
	}
	ret.BON = slices.DeleteFunc(ret.BON, func(h search.Hit) bool { return int(h.Doc) == pos })
	ret.BON = ret.BON[:min(len(ret.BON), pool)]
	// β = 1 fusion is exactly the documented normalization of a pure-BON
	// ranking: clip(normalize(bon), k).
	out, err := gather(snap, search.Fuse(nil, ret.BON, 1, q.K), nil)
	return ret.response(out), err
}
