package search

import "newslink/internal/index"

// LiveSource is the optional interface an index.Source implements when it
// hides documents (index.Masked). Both retrieval paths — the
// TopK oracle and the block-max kernel — consult it so a tombstoned
// document is never scored, admitted to an accumulator, or returned, while
// the source's corpus statistics (DF, AvgDocLen) keep including tombstoned
// docs until a merge rewrites them (Lucene deletion semantics; see
// DESIGN.md §11).
//
// Pruning stays safe unchanged: term and block bounds computed over all
// postings are still valid upper bounds for the live subset, and the
// threshold only ever reflects live documents.
type LiveSource interface {
	index.Source
	// Live reports whether the document is not tombstoned.
	Live(d index.DocID) bool
}

// liveMask extracts the optional tombstone mask from a source: nil when
// every document is live, so the hot loops pay one nil check per posting.
func liveMask(idx index.Source) LiveSource {
	if l, ok := idx.(LiveSource); ok {
		return l
	}
	return nil
}
