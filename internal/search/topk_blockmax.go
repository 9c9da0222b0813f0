package search

import (
	"context"
	"math/bits"
	"slices"

	"newslink/internal/index"
)

// Block-Max MaxScore evaluation.
//
// Terms are processed in decreasing score-bound order (Turtle & Flood
// max-score; the threshold-algorithm family the paper cites for its top-k
// ranking [49]): once the suffix bound of the remaining terms drops below
// the running threshold, new documents stop being admitted. The block
// layout (internal/index) stores a summary (last doc ID, max TF) per
// 128-posting block, which yields a much tighter per-block upper bound:
// qw·MaxWeight(blockMaxTF, df) + suffixBound[i+1]. A block whose bound
// cannot reach the threshold and that contains no already-accumulated
// document is skipped without being decoded.
//
// The result is provably rank- and score-identical to TopK (exact TAAT) —
// see DESIGN.md §10 for the safety argument; the short form: a document's
// first-appearance block is never skipped unless its total score is
// strictly below the final k-th score; an accumulated document is rescored
// (hasAcc forces the decode) until its partial score plus every remaining
// term bound falls strictly below the threshold, after which its total
// provably cannot reach the final k-th score either; and winners' scores
// are summed in the same term order as TopK, so the surviving top k is
// bitwise identical.

// TopKBlockMaxStats evaluates the query with block-max pruning, ordering
// the terms from the source's own cursor summaries, and reports retrieval
// statistics. Results equal TopK exactly. Unlike Postings-based traversal —
// where a disk read failure looks like an absent term — block decode/IO
// errors surface as errors, and a done context aborts with ctx.Err().
func TopKBlockMaxStats(ctx context.Context, idx index.Source, s BM25, q Query, k int) ([]Hit, RetrievalStats, error) {
	ordered, _ := OrderTerms(idx, s, q)
	return TopKBlockMaxOrderedStats(ctx, idx, s, ordered, k)
}

// bmAcc is a dense score accumulator over the whole document space
// [0, NumDocs), so plain array indexing replaces the map the TAAT oracle
// uses — the accumulator's memory is comparable to the index's own
// per-document overhead, and every per-posting operation is O(1) without
// hashing. Two bitmaps ride along: seen marks documents with an accumulator
// entry; viable marks the subset that can still reach the top k, which is
// what the per-block skip decision consults.
//
// Accumulators are pooled across requests (scratch.go): obtain one with
// acquireBMAcc and return it with release once the winners are copied out.
// cand is the request-owned candidate list that refresh and selectTop
// collect into and select from, recycled with the accumulator.
type bmAcc struct {
	score  []float64
	seen   []uint64
	viable []uint64
	n      int // number of seen documents
	cand   []Hit
}

func (a *bmAcc) isSeen(d index.DocID) bool {
	return a.seen[d>>6]&(1<<(d&63)) != 0
}

// admit marks a newly seen document; new documents start viable.
func (a *bmAcc) admit(d index.DocID) {
	a.seen[d>>6] |= 1 << (d & 63)
	a.viable[d>>6] |= 1 << (d & 63)
	a.n++
}

func (a *bmAcc) add(d index.DocID, w float64) {
	a.score[d] += w
}

// anyViable reports whether any viable document lies in [from, to], with
// to clamped to the document space.
func (a *bmAcc) anyViable(from, to index.DocID) bool {
	if a.n == 0 {
		return false
	}
	lo, hi := uint32(from), uint32(len(a.score))-1
	if uint32(to) < hi {
		hi = uint32(to)
	}
	if lo > hi {
		return false
	}
	lw, hw := lo>>6, hi>>6
	loMask := ^uint64(0) << (lo & 63)
	hiMask := ^uint64(0) >> (63 - hi&63)
	if lw == hw {
		return a.viable[lw]&loMask&hiMask != 0
	}
	if a.viable[lw]&loMask != 0 || a.viable[hw]&hiMask != 0 {
		return true
	}
	for w := lw + 1; w < hw; w++ {
		if a.viable[w] != 0 {
			return true
		}
	}
	return false
}

// sweep drops documents whose partial score plus the remaining terms'
// bounds cannot reach min. The drop is permanent and safe: the threshold
// only rises and the suffix bound only shrinks, so non-viability is
// monotone, and a dropped document's accumulator entry — possibly left
// partial by later skipped blocks — stays strictly below the final k-th
// score, so it can neither enter the result nor displace a winner.
// Keeping the viable set small is what lets whole blocks of frequent
// terms skip even when the accumulator itself is large.
func (a *bmAcc) sweep(suffix, min float64) {
	for w, word := range a.viable {
		for word != 0 {
			b := word & (-word)
			word &^= b
			i := uint32(w)<<6 | uint32(bits.TrailingZeros64(b))
			if a.score[i]+suffix < min {
				a.viable[w] &^= b
			}
		}
	}
}

// refresh recomputes the k-th best score from the viable documents
// scoring at least the current threshold. That drops no winner (DESIGN.md
// §10): the threshold never falls, and the previous top k are still viable
// and only gained score, so the new top k score at least as much.
func (a *bmAcc) refresh(t *threshold, k int) {
	min := t.min()
	t.n = a.n
	if a.n < k {
		t.v = 0
		return
	}
	t.v = topHits(a.candidates(min), k, false)[k-1].Score
}

// candidates collects the viable documents scoring at least min into the
// accumulator's candidate list, which it reuses across calls.
func (a *bmAcc) candidates(min float64) []Hit {
	c := a.cand[:0]
	for w, word := range a.viable {
		for word != 0 {
			b := word & (-word)
			word &^= b
			i := uint32(w)<<6 | uint32(bits.TrailingZeros64(b))
			if s := a.score[i]; s >= min {
				c = append(c, Hit{index.DocID(i), s})
			}
		}
	}
	a.cand = c
	return c
}

// selectTop extracts the k best hits, identically to TopK's selection over
// every seen document: for refresh's reason the viable documents scoring
// at least the last threshold, min, hold the same k. Only the returned
// slice is allocated; the candidates reuse the accumulator's list.
func (a *bmAcc) selectTop(min float64, k int) []Hit {
	return slices.Clone(topHits(a.candidates(min), k, true))
}

// blockMaxAccumulate is the one postings traversal: the block-max
// accumulation loop over terms in canonical order, across the whole
// document space. Per block it decides, from the summary alone, whether
// the block must be decoded: yes when it may contain a still-viable
// accumulated document (those must be rescored for exactness) or when its
// score upper bound can still lift a new document into the top k;
// otherwise the block is skipped undecoded. Tombstoned documents (the
// source's LiveSource mask) are dropped before the seen/admission check,
// so they are never scored and never influence the threshold. On error
// the statistics cover the work done before the abort.
func blockMaxAccumulate(ctx context.Context, idx index.Source, s BM25, terms []OrderedTerm, k int) ([]Hit, RetrievalStats, error) {
	st := RetrievalStats{Terms: len(terms)}
	// suffixBound[i] = sum of the bounds of terms[i:].
	suffixBound := make([]float64, len(terms)+1)
	for i := len(terms) - 1; i >= 0; i-- {
		suffixBound[i] = suffixBound[i+1] + terms[i].Bound
		st.Postings += terms[i].DF
	}
	numDocs := idx.NumDocs()
	if numDocs == 0 {
		return nil, st, ctx.Err()
	}
	live := liveMask(idx)
	last := index.DocID(numDocs - 1)
	acc := acquireBMAcc(numDocs)
	defer acc.release()
	var th threshold // k-th best score so far
	th.init(k)
	sinceCheck := 0
	for i, t := range terms {
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		idf := s.idf(t.DF) // once per term, not per block bound and posting
		// >= keeps tie-breaking exact: a new doc bounded at exactly the
		// current threshold could still win a tie on DocID.
		newDocsAllowed := suffixBound[i] >= th.min()
		if min := th.min(); min > 0 {
			acc.sweep(suffixBound[i], min)
		}
		cur := idx.TermCursor(t.Term)
		if cur == nil {
			continue
		}
		from := index.DocID(0) // blocks at or below from-1 have been accounted for
		for cur.NextBlock() {
			blockLast := cur.BlockLast()
			// Does the block's doc range cover any still-viable accumulated
			// document?
			hasAcc := acc.anyViable(from, blockLast)
			// Can a document first seen in this block still reach the top k?
			// Its score is at most this block's bound plus the remaining
			// terms' bounds.
			blockNewOK := newDocsAllowed &&
				t.Weight*s.maxWeight(idf, float64(cur.BlockMaxTF()))+suffixBound[i+1] >= th.min()
			from = blockLast + 1
			// Neither pruning reason requires the block's contents: skip it
			// undecoded. Its postings count toward neither Scored nor
			// Skipped — Postings − Scored − Skipped is the traffic the
			// block layout saved.
			if !hasAcc && !blockNewOK {
				st.BlocksSkipped++
				if !newDocsAllowed && !acc.anyViable(from, last) {
					// No viable docs remain above this block and the term
					// admits no new ones: the rest of the list cannot
					// contribute.
					break
				}
				continue
			}
			pl, err := cur.Block()
			if err != nil {
				index.ReleaseCursor(cur)
				return nil, st, err
			}
			st.BlocksDecoded++
			if sinceCheck += len(pl); sinceCheck >= cancelCheckEvery {
				sinceCheck = 0
				if err := ctx.Err(); err != nil {
					index.ReleaseCursor(cur)
					return nil, st, err
				}
			}
			for _, p := range pl {
				// Tombstoned documents are dropped before the seen check:
				// never admitted, never scored, invisible to the threshold.
				if live != nil && !live.Live(p.Doc) {
					st.Skipped++
					continue
				}
				if !acc.isSeen(p.Doc) {
					if !blockNewOK {
						st.Skipped++
						continue
					}
					acc.admit(p.Doc)
				}
				st.Scored++
				acc.add(p.Doc, t.Weight*s.weight(idf, float64(p.TF), idx.DocLen(p.Doc)))
			}
		}
		index.ReleaseCursor(cur)
		// The threshold steers the terms still to come; after the last one
		// selectTop makes the same selection, so refreshing it is wasted
		// work.
		if i < len(terms)-1 {
			acc.refresh(&th, k)
		}
	}
	return acc.selectTop(th.min(), k), st, nil
}
