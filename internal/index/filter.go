package index

// DocFilter is a document predicate: Keep reports whether the document at
// DocID d (the wrapped source's own ID space) should remain visible to
// retrieval. It composes conjunctively with the tombstone mask it
// generalizes (Masked) and, like that mask, does NOT alter the wrapped
// source's statistics: postings, DF, DocLen and AvgDocLen still describe
// the full corpus, so every term/block score bound computed over the
// unfiltered postings remains a valid upper bound for any filtered subset
// and block-max pruning stays admissible unchanged (Lucene's deletion
// semantics, DESIGN.md §16).
//
// Keep must be safe for concurrent use and cheap: it runs inside the
// retrieval hot loops for every candidate document.
type DocFilter interface {
	Keep(d DocID) bool
}

// masked decorates a Source with the two things that hide documents from
// retrieval: a tombstone bitmap and one request DocFilter, either of which
// may be absent. The embedded Source keeps Lucene's deletion semantics —
// cursors, DF, DocLen and AvgDocLen still include hidden documents (a
// tombstoned document's statistics only disappear when a merge rewrites
// the postings) — while Live lets the retrieval tier's live-mask seam
// (search.LiveSource) drop dead or filtered-out candidates before they are
// scored or admitted, with no hot-loop changes.
type masked struct {
	Source
	dead *Bitmap
	keep DocFilter
}

// Masked wraps src with a tombstone bitmap and/or a filter, both indexed by
// the source's own DocIDs; a document is live when it is not set in dead
// and keep (when present) keeps it. With neither, src itself is returned,
// so unmasked reads pay nothing.
func Masked(src Source, dead *Bitmap, keep DocFilter) Source {
	if dead == nil && keep == nil {
		return src
	}
	return &masked{Source: src, dead: dead, keep: keep}
}

// Live reports whether document d is neither tombstoned nor filtered out.
func (m *masked) Live(d DocID) bool {
	return !m.dead.Get(int(d)) && (m.keep == nil || m.keep.Keep(d))
}
