package newslink

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"newslink/internal/core"
	"newslink/internal/faults"
	"newslink/internal/index"
	"newslink/internal/nlp"
	"newslink/internal/obs"
	"newslink/internal/search"
)

// The search pipeline: compile (parameters, analysis, filter) → retrieve
// (BOW ∥ BON) → fuse (Equation 3) → gather (documents and snippets).

// Search returns the top k documents for the query text, ranked by
// Equation 3. It is SearchContext with a background context and the
// engine's configured parameters.
func (e *Engine) Search(query string, k int) ([]Result, error) {
	return e.SearchContext(context.Background(), Query{Text: query, K: k})
}

// SearchContext executes one search request, ranked by Equation 3 with the
// request's (or the engine's) β and candidate pool. BOW and BON retrieval
// run in parallel goroutines — they touch disjoint indexes. Cancellation of
// ctx stops postings traversal cooperatively and returns ctx.Err().
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
	pool := q.PoolDepth
	if pool <= 0 {
		pool = e.cfg.PoolDepth
	}
	if pool < q.K {
		pool = q.K
	}
	snap, err := e.acquire()
	if err != nil {
		return SearchResponse{}, err
	}
	// A candidate pool can never usefully exceed the live corpus, so clamp
	// it to the set size; this keeps an attacker-sized PoolDepth from
	// driving pool-sized allocations regardless of the calling path.
	if n := snap.numLive(); pool > n {
		pool = n
	}
	// One graph view for the whole request: analysis and the entity filter
	// must resolve labels against the same graph even if SwapGraph lands
	// mid-request.
	gs := e.gs.Load()
	qEmb, qTerms, err := e.analyzeQuery(ctx, gs, q.Text)
	if err != nil {
		return SearchResponse{}, err
	}
	if err := ctx.Err(); err != nil {
		return SearchResponse{}, err
	}
	// Filter clauses compile once per request into a composed mask the
	// retrieval tier consults through the live-mask seam; an unfiltered
	// request compiles to nil and runs the untouched fast path.
	flt, err := newQueryFilter(snap, q.After, q.Before, entityTerms(gs.g, q.Entities), -1)
	if err != nil {
		return SearchResponse{}, err
	}
	ret, err := e.retrieve(ctx, snap, qEmb, qTerms, beta, pool, flt)
	if err != nil {
		return SearchResponse{}, err
	}
	tr := obs.FromContext(ctx)
	sp := tr.Start(obs.StageFuse)
	fuseBeta := beta
	if ret.degraded {
		// No BON ranking survived; fuse as pure text so a degraded reply
		// is score- and rank-identical to a β = 0 query and the documented
		// normalization (max score = 1) still holds.
		fuseBeta = 0
	}
	fused := search.Fuse(ret.bow, ret.bon, fuseBeta, q.K)
	d := sp.End(obs.Int("bow_candidates", len(ret.bow)), obs.Int("bon_candidates", len(ret.bon)), obs.Int("fused", len(fused)))
	e.met.stageObserve(obs.StageFuse, d)
	sp = tr.Start(obs.StageTopK)
	out := make([]Result, len(fused))
	snippets := nlp.NewTermSet(qTerms) // compiled once, probed by every result document
	for i, h := range fused {
		doc := snap.doc(int(h.Doc))
		out[i] = Result{
			ID:      doc.ID,
			Title:   doc.Title,
			Score:   h.Score,
			Snippet: snippets.BestSentence(doc.Text),
		}
	}
	d = sp.End(obs.Int("k", len(out)))
	e.met.stageObserve(obs.StageTopK, d)
	return SearchResponse{Results: out, Degraded: ret.degraded, DegradedReason: ret.reason}, nil
}

// retrieval is the outcome of the parallel BOW/BON fan-out of one search:
// the two candidate lists plus whether the request degraded to BOW-only
// ranking (and why).
type retrieval struct {
	bow, bon []search.Hit
	degraded bool
	reason   string
}

// retrieve runs BOW and BON retrieval for one search request. The two
// stages touch disjoint indexes and run in parallel goroutines; each is
// one sequential block-max traversal (DESIGN.md §6 records why the
// intra-query DocID-range fan-out was removed).
//
// In the fused case (0 < β < 1) the BON stage is sacrificial: it runs
// under its own deadline when SetBONTimeout is configured, and a BON
// error or stage timeout degrades the request to BOW-only ranking
// instead of failing it — the text ranking is independently useful and a
// degraded reply beats a 5xx. A request whose own context ended still
// fails with that context's error, and single-sided requests (β = 0 or
// β = 1) keep strict error semantics: they have nothing to fall back to.
func (e *Engine) retrieve(ctx context.Context, snap *segmentSet, qEmb *core.DocEmbedding, qTerms []string, beta float64, pool int, flt *queryFilter) (retrieval, error) {
	tr := obs.FromContext(ctx)
	runBOW := beta < 1
	runBON := beta > 0 && qEmb != nil
	// A filtered request traverses the same indexes behind a composed mask
	// (index.Masked): statistics and block bounds are those of the full
	// corpus, so scoring and pruning are unchanged; only candidate
	// admission consults the filter. Unfiltered requests keep the
	// published sources.
	text, node := snap.sources(flt)
	var bow, bon []search.Hit
	var bowErr, bonErr error
	retrieveBOW := func(ctx context.Context) {
		sp := tr.Start(obs.StageBOW)
		var st search.RetrievalStats
		bow, st, bowErr = search.TopKBlockMaxStats(ctx, text, search.NewBM25(text), search.NewQuery(qTerms), pool)
		e.met.blocksObserve(st)
		d := sp.End(retrievalAttrs(len(bow), st)...)
		e.met.stageObserve(obs.StageBOW, d)
	}
	retrieveBON := func(ctx context.Context) {
		sp := tr.Start(obs.StageBON)
		var st search.RetrievalStats
		defer func() {
			e.met.blocksObserve(st)
			d := sp.End(retrievalAttrs(len(bon), st)...)
			e.met.stageObserve(obs.StageBON, d)
		}()
		if bonErr = faults.FireCtx(ctx, faults.BONStage); bonErr != nil {
			return
		}
		bon, st, bonErr = bonTopK(ctx, node, qEmb, pool)
	}
	switch {
	case runBOW && runBON:
		bctx, bcancel := ctx, context.CancelFunc(func() {})
		if d := time.Duration(e.bonTimeout.Load()); d > 0 {
			bctx, bcancel = context.WithTimeout(ctx, d)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			retrieveBON(bctx)
		}()
		retrieveBOW(ctx)
		wg.Wait()
		bcancel()
		if bowErr != nil {
			return retrieval{}, bowErr
		}
		if bonErr != nil {
			if err := ctx.Err(); err != nil {
				return retrieval{}, err
			}
			reason := DegradedBONError
			if errors.Is(bonErr, context.DeadlineExceeded) {
				reason = DegradedBONTimeout
			}
			return retrieval{bow: bow, degraded: true, reason: reason}, nil
		}
	case runBOW:
		retrieveBOW(ctx)
	case runBON:
		retrieveBON(ctx)
	}
	if bowErr != nil {
		return retrieval{}, bowErr
	}
	if bonErr != nil {
		return retrieval{}, bonErr
	}
	return retrieval{bow: bow, bon: bon}, nil
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

// bonTopK ranks the node index against a subgraph embedding with the BON
// scorer (search.NodeBM25) — the BON leg of a search, and all of a
// related-news request.
func bonTopK(ctx context.Context, node index.Source, emb *core.DocEmbedding, k int) ([]search.Hit, search.RetrievalStats, error) {
	nq := make(search.Query, len(emb.Counts))
	for n, c := range emb.Counts {
		nq[nodeTerm(n)] = float64(c)
	}
	return search.TopKBlockMaxStats(ctx, node, search.NodeBM25(node.NumDocs(), node.AvgDocLen()), nq, k)
}
