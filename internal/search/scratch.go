package search

import (
	"math/bits"
	"sync"

	"newslink/internal/index"
)

// Pooled per-request retrieval scratch.
//
// One fused query at 100k documents used to allocate ~1.6 MB before this
// file existed: every blockMaxAccumulate call built a fresh dense
// accumulator (8 bytes per document) plus two bitmaps, and every
// per-term threshold refresh built fresh top-k scratch. None of that
// state outlives the request, so it is recycled through a sync.Pool
// instead — the candidate list that refresh and selectTop select from
// (at most 16 bytes per viable document) rides along with the
// accumulator: acquire hands out an accumulator whose arrays are guaranteed
// all-zero, and release scrubs exactly the words the request dirtied
// before returning it — the dirty-word analogue of internal/core/state.go's
// epoch reset, chosen here because the seen bitmap already records every
// touched document, making the scrub O(touched) with no per-page epochs.
//
// Safety argument for reuse (tested under -race by pooled-reuse
// concurrency tests): a pooled accumulator is handed to exactly one
// goroutine between Get and Put; the release scrub zeroes score[i],
// seen-word and viable-word for every bit set in seen (viable is a subset
// of seen — admit sets both, sweep only clears viable); and growth
// allocates fresh zeroed arrays. By induction the entire capacity of every
// pooled array is zero at Put time, so a later acquire that reslices
// larger within capacity still sees zeros. The candidate list is not
// scrubbed: every use truncates it to length 0 and reads only what that
// use appended. No score can leak between requests.

// bmAccPool recycles dense accumulators across requests. Entries arrive
// fully scrubbed (see bmAcc.release); GC may drop them at any time, which
// only costs a re-allocation.
var bmAccPool = sync.Pool{New: func() any { return new(bmAcc) }}

// acquireBMAcc returns a pooled accumulator covering documents [0, span),
// with score, seen and viable all-zero. Release it with bmAcc.release when
// the request is done with it (after selectTop has copied the winners out).
func acquireBMAcc(span int) *bmAcc {
	words := (span + 63) / 64
	a := bmAccPool.Get().(*bmAcc)
	a.n = 0
	if cap(a.score) < span {
		a.score = make([]float64, span)
	} else {
		a.score = a.score[:span]
	}
	if cap(a.seen) < words {
		a.seen = make([]uint64, words)
		a.viable = make([]uint64, words)
	} else {
		a.seen = a.seen[:words]
		a.viable = a.viable[:words]
	}
	return a
}

// release scrubs the accumulator's dirtied state and returns it to the
// pool. Cost is O(words + touched documents): clean words are skipped with
// one load each.
func (a *bmAcc) release() {
	for w, word := range a.seen {
		if word == 0 {
			continue
		}
		base := uint32(w) << 6
		for word != 0 {
			b := word & (-word)
			word &^= b
			a.score[base|uint32(bits.TrailingZeros64(b))] = 0
		}
		a.seen[w] = 0
		a.viable[w] = 0
	}
	a.n = 0
	bmAccPool.Put(a)
}

// mapAccPool recycles the map accumulator of the exact TAAT oracle (TopK).
// Maps are cleared on release, so reuse keeps the buckets warm without
// leaking scores between requests.
var mapAccPool = sync.Pool{New: func() any { return make(map[index.DocID]float64) }}

func acquireMapAcc() map[index.DocID]float64 { return mapAccPool.Get().(map[index.DocID]float64) }

func releaseMapAcc(m map[index.DocID]float64) {
	clear(m)
	mapAccPool.Put(m)
}
