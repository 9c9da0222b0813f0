package newslink

import (
	"context"
	"errors"
	"fmt"
	"time"

	"newslink/internal/core"
	"newslink/internal/faults"
	"newslink/internal/index"
	"newslink/internal/nlp"
	"newslink/internal/obs"
	"newslink/internal/search"
)

// The search pipeline: compile (parameters, analysis) → retrieve (the BOW
// and BON postings traversals, the one step that may run elsewhere) → fuse
// (Equation 3) → gather (documents and snippets).

// Search returns the top k documents for the query text, ranked by
// Equation 3. It is SearchContext with a background context and the
// engine's configured parameters.
func (e *Engine) Search(query string, k int) ([]Result, error) {
	return e.SearchContext(context.Background(), Query{Text: query, K: k})
}

// SearchContext executes one search request, ranked by Equation 3 with the
// request's (or the engine's) β and candidate pool. Cancellation of ctx
// stops postings traversal cooperatively and returns ctx.Err().
//
// When ctx carries a trace (obs.WithTrace), the pipeline records one span
// per stage — analyze, bow-retrieve, bon-retrieve, fuse, topk — with stage
// attributes (candidate counts, pruning statistics, cache hit/miss). Stage
// latencies additionally feed the engine's metric registry
// (Metrics) whether or not a trace is attached.
func (e *Engine) SearchContext(ctx context.Context, q Query) ([]Result, error) {
	resp, err := e.SearchContextFull(ctx, q)
	return resp.Results, err
}

// SearchContextFull is SearchContext returning the full response
// envelope, including the degradation status servers surface to clients.
// A BON-stage error or stage-deadline expiry (SetBONTimeout) in a fused
// request does not fail the request: the response carries the BOW-only
// ranking with Degraded set and the reason recorded, and the engine
// counts it in newslink_search_degraded_total{reason}. Pure-BON requests
// (β = 1) have no text ranking to fall back to and still fail hard.
func (e *Engine) SearchContextFull(ctx context.Context, q Query) (SearchResponse, error) {
	start := time.Now()
	resp, err := e.searchContext(ctx, q)
	e.met.searches.Inc()
	e.met.searchSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		e.met.searchErrors.Inc()
	}
	if resp.Degraded {
		if c := e.met.degraded[resp.DegradedReason]; c != nil {
			c.Inc()
		}
	}
	return resp, err
}

func (e *Engine) searchContext(ctx context.Context, q Query) (SearchResponse, error) {
	if err := ctx.Err(); err != nil {
		return SearchResponse{}, err
	}
	if q.K <= 0 {
		return SearchResponse{}, fmt.Errorf("%w: %d", ErrInvalidK, q.K)
	}
	beta := e.cfg.Beta
	if q.Beta != nil {
		beta = *q.Beta
	}
	if beta < 0 || beta > 1 {
		return SearchResponse{}, fmt.Errorf("%w: %g", ErrInvalidBeta, beta)
	}
	snap, err := e.acquire()
	if err != nil {
		return SearchResponse{}, err
	}
	qEmb, qTerms, err := e.analyzeQuery(ctx, q.Text)
	if err != nil {
		return SearchResponse{}, err
	}
	if err := ctx.Err(); err != nil {
		return SearchResponse{}, err
	}
	if beta == 0 {
		qEmb = nil // no BON leg
	}
	ret, err := e.retrieve(ctx, snap, Traversal{
		Pool:     e.pool(snap, q.PoolDepth, q.K),
		After:    q.After,
		Before:   q.Before,
		Entities: entityTerms(e.Graph(), q.Entities),
	}, beta < 1, qTerms, qEmb)
	if err != nil {
		return SearchResponse{}, err
	}
	tr := obs.FromContext(ctx)
	sp := tr.Start(obs.StageFuse)
	fuseBeta := beta
	if ret.DegradedReason == DegradedBONError || ret.DegradedReason == DegradedBONTimeout {
		// No BON ranking survived; fuse as pure text so a degraded reply
		// is score- and rank-identical to a β = 0 query and the documented
		// normalization (max score = 1) still holds.
		fuseBeta = 0
	}
	fused := search.Fuse(ret.BOW, ret.BON, fuseBeta, q.K)
	d := sp.End(obs.Int("bow_candidates", len(ret.BOW)), obs.Int("bon_candidates", len(ret.BON)), obs.Int("fused", len(fused)))
	e.met.stageObserve(obs.StageFuse, d)
	sp = tr.Start(obs.StageTopK)
	out, err := gather(snap, fused, nlp.NewTermSet(qTerms))
	d = sp.End(obs.Int("k", len(out)))
	e.met.stageObserve(obs.StageTopK, d)
	if err != nil {
		return SearchResponse{}, err
	}
	return ret.response(out), nil
}

// gather materializes the results of a fused ranking: each hit's ID,
// title and score, and its snippet when snippets (compiled once, probed by
// every result document) is set. A stored document that does not read
// fails it.
func gather(snap *segmentSet, fused []search.Hit, snippets *nlp.TermSet) ([]Result, error) {
	out := make([]Result, len(fused))
	for i, h := range fused {
		r, err := snap.result(int(h.Doc), snippets)
		if err != nil {
			return nil, err
		}
		out[i] = r
		out[i].Score = h.Score
	}
	return out, nil
}

// pool is a request's candidate pool: the request's depth (or the
// engine's), never below k and never above the live corpus. The clamp keeps
// an attacker-sized PoolDepth from driving pool-sized allocations
// regardless of the calling path.
func (e *Engine) pool(snap *segmentSet, depth, k int) int {
	if depth <= 0 {
		depth = e.cfg.PoolDepth
	}
	return min(max(depth, k), snap.numLive())
}

// nodeQuery fills q with a subgraph embedding as a BON query — one node
// term per node, weighted by its count — and returns it. The caller sizes
// q, so a query that does not outlive the call can stay off the heap.
func nodeQuery(q search.Query, emb *core.DocEmbedding) search.Query {
	for n, c := range emb.Counts {
		q[core.NodeTerm(n)] = float64(c)
	}
	return q
}

// Traversal is the postings-traversal step of one search or related-news
// request — the seam between the engine's pipeline and whatever traverses
// its postings. An engine traverses its own indexes; a cluster router's
// engine (LoadRouted) hands the step to its shard workers. Everything
// before it (analysis, pool sizing, entity resolution) and after it
// (fusion, documents, snippets) runs in the engine either way.
type Traversal struct {
	// Text and Node are the BOW and BON queries; a nil query skips its leg.
	Text, Node search.Query
	// Pool is the candidate-list depth of each leg, already clamped to
	// the engine's live corpus.
	Pool int
	// After, Before and Entities are the request's filter clauses
	// uncompiled: inclusive time bounds (0 = unbounded) and one node-term
	// set per entity label (conjunctive across sets; an empty set matches
	// nothing). Statistics stay those of the unfiltered corpus.
	After, Before int64
	Entities      [][]string
}

// Retrieval is what the traversals of one request found: the BOW and BON
// candidate lists, over global positions, and how the request degraded on
// the way — the SearchResponse fields of the same names (a non-empty
// DegradedReason is a degraded request).
type Retrieval struct {
	BOW, BON              []search.Hit
	DegradedReason        string
	ShardsTotal, ShardsOK int
}

// response is the SearchResponse of results ranked from r.
func (r Retrieval) response(results []Result) SearchResponse {
	return SearchResponse{Results: results, Degraded: r.DegradedReason != "", DegradedReason: r.DegradedReason,
		ShardsTotal: r.ShardsTotal, ShardsOK: r.ShardsOK}
}

// retrieve runs one request's traversals — the BOW leg over terms when bow
// is set, the BON leg over the subgraph embedding emb when it is non-nil,
// each t.Pool deep under t's filter clauses — remotely when the engine was
// loaded with a traversal (LoadRouted), which receives them as the queries
// t.Text and t.Node, otherwise over snap's own indexes: the two legs one
// after the other on the calling goroutine, each one sequential block-max
// traversal (DESIGN.md §6 records why neither the
// BOW ∥ BON goroutine nor the intra-query DocID-range fan-out is kept).
//
// In the fused case (both legs) the BON leg is sacrificial: it runs under
// its own deadline when SetBONTimeout is configured, and a BON error or
// stage timeout degrades the request to BOW-only ranking instead of failing
// it — the text ranking is independently useful and a degraded reply beats
// a 5xx. A request whose own context ended still fails with that context's
// error, and single-leg requests (β = 0, β = 1, related news) keep strict
// error semantics: they have nothing to fall back to.
func (e *Engine) retrieve(ctx context.Context, snap *segmentSet, t Traversal, bow bool, terms []string, emb *core.DocEmbedding) (Retrieval, error) {
	if e.remote != nil {
		if bow {
			t.Text = search.NewQuery(terms)
		}
		if emb != nil {
			t.Node = nodeQuery(make(search.Query, len(emb.Counts)), emb)
		}
		return e.remote(ctx, t)
	}
	// Filter clauses compile once per request into a composed mask the
	// traversals consult through the live-mask seam: statistics and block
	// bounds stay those of the full corpus, so scoring and pruning are
	// unchanged; only candidate admission consults the filter. An
	// unfiltered request compiles to nil and keeps the published sources.
	flt, err := newQueryFilter(snap, t.After, t.Before, t.Entities)
	if err != nil {
		return Retrieval{}, err
	}
	var ret Retrieval
	if bow {
		if ret.BOW, err = e.bowLeg(ctx, snap.textSource(flt), terms, t.Pool); err != nil {
			return Retrieval{}, err
		}
	}
	if emb == nil {
		return ret, nil
	}
	node := snap.nodeSource(flt)
	if !bow {
		ret.BON, err = e.bonLeg(ctx, node, emb, t.Pool)
		return ret, err
	}
	bctx, cancel := ctx, context.CancelFunc(func() {})
	if d := time.Duration(e.bonTimeout.Load()); d > 0 {
		bctx, cancel = context.WithTimeout(ctx, d)
	}
	defer cancel()
	if ret.BON, err = e.bonLeg(bctx, node, emb, t.Pool); err != nil {
		if err := ctx.Err(); err != nil {
			return Retrieval{}, err
		}
		ret.BON, ret.DegradedReason = nil, DegradedBONError
		if errors.Is(err, context.DeadlineExceeded) {
			ret.DegradedReason = DegradedBONTimeout
		}
	}
	return ret, nil
}

// bowLeg is the BOW traversal: BM25 over the text index, recorded as the
// bow-retrieve stage.
func (e *Engine) bowLeg(ctx context.Context, text index.Source, terms []string, pool int) ([]search.Hit, error) {
	sp := obs.FromContext(ctx).Start(obs.StageBOW)
	hits, st, err := search.TopKBlockMaxStats(ctx, text, search.NewBM25(text), search.NewQuery(terms), pool)
	e.met.blocksObserve(st)
	e.met.stageObserve(obs.StageBOW, sp.End(retrievalAttrs(len(hits), st)...))
	return hits, err
}

// bonLeg is the BON traversal: the node index ranked against a subgraph
// embedding with the BON scorer (search.NodeBM25), recorded as the
// bon-retrieve stage. Its fault point stands for a failing or slow
// graph-side index.
func (e *Engine) bonLeg(ctx context.Context, node index.Source, emb *core.DocEmbedding, pool int) ([]search.Hit, error) {
	sp := obs.FromContext(ctx).Start(obs.StageBON)
	var hits []search.Hit
	var st search.RetrievalStats
	err := faults.FireCtx(ctx, faults.BONStage)
	if err == nil {
		hits, st, err = search.TopKBlockMaxStats(ctx, node, search.NodeBM25(node.NumDocs(), node.AvgDocLen()),
			nodeQuery(make(search.Query, len(emb.Counts)), emb), pool)
	}
	e.met.blocksObserve(st)
	e.met.stageObserve(obs.StageBON, sp.End(retrievalAttrs(len(hits), st)...))
	return hits, err
}

// retrievalAttrs converts retrieval statistics into trace span attributes.
func retrievalAttrs(candidates int, st search.RetrievalStats) []obs.Attr {
	return []obs.Attr{
		obs.Int("candidates", candidates),
		obs.Int("terms", st.Terms),
		obs.Int("postings", st.Postings),
		obs.Int("scored", st.Scored),
		obs.Int("pruned", st.Skipped),
		obs.Int("blocks_decoded", st.BlocksDecoded),
		obs.Int("blocks_skipped", st.BlocksSkipped),
	}
}
