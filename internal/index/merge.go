package index

import (
	"fmt"
	"slices"
)

// MergeSegments compacts an ordered sequence of segments (built, merged or
// parsed from snapshot artifacts) into a single Index, dropping
// documents marked dead in the per-segment tombstone bitmaps (dead may be nil, or hold nil
// entries, meaning no deletes in that segment). Surviving documents keep
// their relative order and are renumbered densely from 0.
//
// The merge is one pass: the parts' directories are already sorted, so it
// walks them as a k-way merge, and each term's lists — in part order —
// decode block by block through one reused cursor straight into one reused
// postings buffer, where they are renumbered in place before the merged
// list is re-encoded.
//
// For inputs without deletes the merge is an identity transform in the
// strict floating-point sense, which is what makes segmented search
// rank/score-identical to a single-segment build (DESIGN.md §11):
//
//   - docLen values are copied, not recomputed, so the float32 sums the
//     Builder folded in sorted-term order survive bit-for-bit;
//   - totalLen is re-accumulated as one float64 fold in document order —
//     the order newIndex folds a built index's lengths in;
//   - postings concatenate in (segment, local DocID) order, so each term's
//     list is already DocID-sorted and appendBlocks produces the same
//     block layout a single build would;
//   - TermIDs come out canonical because the directory walk emits the term
//     union in sorted order, matching Builder.Build.
//
// With deletes, the rewrite drops the tombstoned postings and their length
// statistics, so DF/AvgDocLen tighten to the live corpus — the point of
// compaction.
//
// This is the only function that rewrites postings, so any change to how
// documents are numbered inside a segment lands here. A part whose postings
// fail to decode fails the merge, naming the term: an undecodable list is
// never merged as an empty one.
func MergeSegments(parts []*Index, dead []*Bitmap) (*Index, error) {
	var docLen []float32
	area := int64(0)
	// Remap each part's local DocIDs to the merged space (-1 = dropped),
	// copying per-document lengths as we go.
	remaps := make([][]int32, len(parts))
	next := int32(0)
	for pi, p := range parts {
		n := p.NumDocs()
		r := make([]int32, n)
		var dd *Bitmap
		if dead != nil {
			dd = dead[pi]
		}
		for d := 0; d < n; d++ {
			if dd.Get(d) {
				r[d] = -1
				continue
			}
			r[d] = next
			next++
			docLen = append(docLen, p.docLen[d])
		}
		remaps[pi] = r
		area += p.areaLen()
	}
	var lists []termList
	// Headroom: the merged area runs a few percent over the parts' sum (a
	// list's first gap in a later part grows by that part's base).
	data := make([]byte, 0, area+area/8)
	heads := make([]int, len(parts)) // next directory row of each part
	var pl []Posting
	var c cursor
	for {
		// The smallest head term is the next term of the union.
		term, ok := "", false
		for pi, p := range parts {
			if h := heads[pi]; h < len(p.lists) && (!ok || p.lists[h].term < term) {
				term, ok = p.lists[h].term, true
			}
		}
		if !ok {
			break
		}
		pl = pl[:0]
		for pi, p := range parts {
			h := heads[pi]
			if h == len(p.lists) || p.lists[h].term != term {
				continue
			}
			heads[pi]++
			c.idx, c.tl, c.bi = p, &p.lists[h], -1
			r := remaps[pi]
			for c.NextBlock() {
				// Decode into pl's spare tail, then renumber in place: the
				// write index never passes the read index.
				pl = slices.Grow(pl, blockSize)
				blk, err := c.decode(pl[len(pl):len(pl)])
				if err != nil {
					return nil, fmt.Errorf("index: term %q: %w", term, err)
				}
				for _, e := range blk {
					if nd := r[e.Doc]; nd >= 0 {
						pl = append(pl, Posting{Doc: DocID(nd), TF: e.TF})
					}
				}
			}
		}
		if len(pl) == 0 {
			continue // every posting of this term was tombstoned
		}
		var tl termList
		tl, data = appendBlocks(data, term, pl)
		lists = append(lists, tl)
	}
	return newIndex(docLen, lists, data), nil
}
