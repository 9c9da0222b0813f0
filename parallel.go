package newslink

import (
	"context"
	"errors"
	"sync"
	"time"

	"newslink/internal/core"
	"newslink/internal/faults"
	"newslink/internal/index"
	"newslink/internal/obs"
	"newslink/internal/search"
)

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
	// (index.Filtered): statistics and block bounds are those of the full
	// corpus, so scoring and pruning are unchanged; only candidate
	// admission consults the filter. Unfiltered requests keep the raw
	// sources.
	text, node := snap.text, snap.node
	if flt != nil {
		text = index.NewFiltered(text, flt)
		node = index.NewFiltered(node, flt)
	}
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

// bonTopK ranks the node index against a subgraph embedding — the BON leg
// of a search, and all of a related-news request. BON scoring uses BM25
// with b=0 and a small k1: a subgraph embedding's size is structural, not
// verbosity (no length penalty), and node frequencies saturate quickly so
// BON behaves as an idf-weighted node-set match. This keeps Equation 3's
// text ranking authoritative within clusters of same-event stories.
func bonTopK(ctx context.Context, node index.Source, emb *core.DocEmbedding, k int) ([]search.Hit, search.RetrievalStats, error) {
	nq := make(search.Query, len(emb.Counts))
	for n, c := range emb.Counts {
		nq[nodeTerm(n)] = float64(c)
	}
	bonScorer := search.NewBM25(node)
	bonScorer.B = 0
	bonScorer.K1 = 0.4
	return search.TopKBlockMaxStats(ctx, node, bonScorer, nq, k)
}
