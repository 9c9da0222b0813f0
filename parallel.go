package newslink

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"newslink/internal/core"
	"newslink/internal/faults"
	"newslink/internal/index"
	"newslink/internal/obs"
	"newslink/internal/search"
	"newslink/internal/wal"
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

// AddAll indexes a batch of documents, running the NLP and NE components
// concurrently across workers (Section VII-G of the paper: "for processing
// corpus data, we can easily parallelize the process"). Results are
// identical to sequential Add calls in the same order; only wall-clock time
// changes. workers <= 0 selects GOMAXPROCS. After Build, the batch lands in
// the open segment like individual Adds. A duplicate document ID aborts the
// batch at the offending document; documents before it stay indexed.
func (e *Engine) AddAll(docs []Document, workers int) error {
	// While the async ingest pipeline is armed (post-Build, WithIngestQueue)
	// the batch routes through it document by document, preserving the
	// single WAL/apply total order; the pipeline's applier does its own
	// parallel analysis per micro-batch. The fan-out below covers the main
	// AddAll use — initial corpus loading before Build.
	if e.ingest.Load() != nil {
		for _, doc := range docs {
			if err := e.Add(doc); err != nil {
				return err
			}
		}
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(docs) {
		workers = len(docs)
	}
	type analyzed struct {
		emb   *core.DocEmbedding
		terms []string
	}
	// Analysis reads only immutable engine state, so it runs outside the
	// lock and searches proceed while the batch embeds.
	out := make([]analyzed, len(docs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				emb, terms := e.analyze(docs[i].Text)
				out[i] = analyzed{emb, terms}
			}
		}()
	}
	for i := range docs {
		next <- i
	}
	close(next)
	wg.Wait()
	// Indexing is order-dependent (DocIDs are positional), so it stays
	// sequential; it is a tiny fraction of the embedding cost (Figure 7).
	// Post-Build batches are WAL-logged first (one group-commit fsync for
	// the whole batch), so every document of an acknowledged batch
	// survives a crash; replay skips the duplicates of a batch that
	// failed midway, converging to the same state this call left behind.
	e.walMu.Lock()
	defer e.walMu.Unlock()
	if e.wal != nil && !e.walClosed && e.set.Load() != nil {
		var last wal.Pos
		for _, doc := range docs {
			pos, err := e.wal.Write(encodeWALOp(walOpAdd, doc))
			if err != nil {
				return err
			}
			last = pos
		}
		if err := e.wal.WaitDurable(last); err != nil {
			return err
		}
	} else if e.walClosed {
		return ErrClosed
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, doc := range docs {
		if err := e.addLocked(doc, out[i].emb, out[i].terms); err != nil {
			return err
		}
	}
	return nil
}
