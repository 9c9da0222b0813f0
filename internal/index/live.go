package index

// LiveFiltered decorates a Source with a tombstone mask. The embedded
// Source keeps Lucene's deletion semantics: postings, DF, DocLen and
// AvgDocLen still include tombstoned documents (their statistics only
// disappear when a merge rewrites the postings), while Live lets the
// retrieval tier drop dead candidates before they are scored or admitted,
// so a deleted document can never surface in results.
type LiveFiltered struct {
	Source
	dead *Bitmap
}

// NewLiveFiltered wraps src with the given tombstone bitmap (indexed by the
// source's own DocIDs). A nil or empty bitmap means everything is live; the
// caller should then use src directly and skip the wrapper.
func NewLiveFiltered(src Source, dead *Bitmap) *LiveFiltered {
	return &LiveFiltered{Source: src, dead: dead}
}

// Live reports whether document d has not been tombstoned.
func (l *LiveFiltered) Live(d DocID) bool { return !l.dead.Get(int(d)) }

var _ Source = (*LiveFiltered)(nil)
