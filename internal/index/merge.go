package index

import "sort"

// MergeSegments compacts an ordered sequence of segments (resident or
// file-backed) into a single resident Index, dropping documents marked dead
// in the per-segment tombstone bitmaps (dead may be nil, or hold nil
// entries, meaning no deletes in that segment). Surviving documents keep
// their relative order and are renumbered densely from 0.
//
// For inputs without deletes the merge is an identity transform in the
// strict floating-point sense, which is what makes segmented search
// rank/score-identical to a single-segment build (DESIGN.md §11):
//
//   - docLen values are copied, not recomputed, so the float32 sums the
//     Builder folded in sorted-term order survive bit-for-bit;
//   - totalLen is re-accumulated as one float64 fold in document order —
//     the same order Builder.AddWeighted used across consecutive Adds;
//   - postings concatenate in (segment, local DocID) order, so each term's
//     list is already DocID-sorted and appendBlocks produces the same
//     block layout a single build would;
//   - TermIDs come out canonical because the term union is enumerated in
//     sorted order, matching Builder.Build.
//
// With deletes, the rewrite drops the tombstoned postings and their length
// statistics, so DF/AvgDocLen tighten to the live corpus — the point of
// compaction.
//
// This is the only function that rewrites postings, so any change to how
// documents are numbered inside a segment lands here. A part whose postings
// cannot be read fails the merge: an unreadable list is never merged as an
// empty one.
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
	for _, t := range mergedTerms(parts) {
		var pl []Posting
		for pi, p := range parts {
			r := remaps[pi]
			src, err := Postings(p, t)
			if err != nil {
				return nil, err
			}
			for _, e := range src {
				if nd := r[e.Doc]; nd >= 0 {
					pl = append(pl, Posting{Doc: DocID(nd), TF: e.TF})
				}
			}
		}
		if len(pl) == 0 {
			continue // every posting of this term was tombstoned
		}
		var tl termList
		tl, data = appendBlocks(data, t, pl)
		lists = append(lists, tl)
	}
	return newIndex(docLen, lists, data), nil
}

// mergedTerms returns the sorted union of the parts' vocabularies.
func mergedTerms[S Source](parts []S) []string {
	seen := map[string]bool{}
	var terms []string
	for _, p := range parts {
		p.ForEachTerm(func(t string) bool {
			if !seen[t] {
				seen[t] = true
				terms = append(terms, t)
			}
			return true
		})
	}
	sort.Strings(terms)
	return terms
}
