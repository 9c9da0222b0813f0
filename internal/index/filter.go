package index

// DocFilter is one composable document predicate: Keep reports whether the
// document at DocID d (the wrapped source's own ID space) should remain
// visible to retrieval. Filters compose conjunctively — a document survives
// only when every filter keeps it — and, like the tombstone mask they
// generalize, they do NOT alter the wrapped source's statistics: postings,
// DF, DocLen and AvgDocLen still describe the full corpus, so every
// term/block score bound computed over the unfiltered postings remains a
// valid upper bound for any filtered subset and block-max pruning stays
// admissible unchanged (Lucene's deletion semantics, DESIGN.md §16).
//
// Keep must be safe for concurrent use and cheap: it runs inside the
// retrieval hot loops for every candidate document.
type DocFilter interface {
	Keep(d DocID) bool
}

// Filtered decorates a Source with a conjunction of DocFilters, composing
// them with whatever liveness the wrapped source already enforces (a
// LiveFiltered tombstone mask, or another Filtered). It satisfies the same
// Live contract as LiveFiltered, so the retrieval tier's live-mask
// seam (search.LiveSource) picks it up with no hot-loop changes: dead or
// filtered-out candidates are dropped before scoring or admission, while
// the statistics the scorers read stay those of the full corpus.
type Filtered struct {
	Source
	live    func(DocID) bool // wrapped source's own liveness; nil = all live
	filters []DocFilter
}

// NewFiltered wraps src with filters. Nil filters are dropped; with none
// remaining src is returned unchanged, so unfiltered requests pay nothing.
func NewFiltered(src Source, filters ...DocFilter) Source {
	kept := make([]DocFilter, 0, len(filters))
	for _, f := range filters {
		if f != nil {
			kept = append(kept, f)
		}
	}
	if len(kept) == 0 {
		return src
	}
	f := &Filtered{Source: src, filters: kept}
	if l, ok := src.(interface{ Live(DocID) bool }); ok {
		f.live = l.Live
	}
	return f
}

// Live reports whether document d survives the wrapped source's own
// liveness and every filter.
func (f *Filtered) Live(d DocID) bool {
	if f.live != nil && !f.live(d) {
		return false
	}
	for _, flt := range f.filters {
		if !flt.Keep(d) {
			return false
		}
	}
	return true
}

var _ Source = (*Filtered)(nil)
