// Package index implements the inverted-index substrate of the NS component
// (Section VI). The same index structure serves both the Bag-Of-Words model
// over text terms and the Bag-Of-Node model over knowledge-graph node ids
// ("scoring compatibility": BON replaces words with nodes, everything else —
// postings, TF-IDF/BM25 weighting, top-k — is shared).
package index

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"
)

// Source is the read interface the query processor consumes; Index
// (resident or file-backed), the segmented Multi and the Masked decorator
// all satisfy it, so searches run unchanged over any of them.
type Source interface {
	NumDocs() int
	DocLen(d DocID) float64
	AvgDocLen() float64
	// TermCursor returns a new block-granular iterator over a term's
	// postings, or nil if the term is absent. Every call returns an
	// independent cursor, so concurrent traversals each position their
	// own.
	TermCursor(term string) Cursor
	// DF returns the document frequency of a term.
	DF(term string) int
}

// Cursor iterates one term's postings block by block. A fresh cursor is
// positioned before the first block; NextBlock or SeekBlock must succeed
// before the Block* accessors are used. Block summaries (BlockLast,
// BlockMaxTF, BlockLen) are available without decoding, which is what makes
// block-max pruning and block-granular disk reads possible: a block whose
// score upper bound cannot matter is skipped without ever touching its
// bytes.
type Cursor interface {
	// Count returns the total number of postings in the list (the DF).
	Count() int
	// MaxTF returns the maximum term frequency across the whole list.
	MaxTF() float32
	// NextBlock advances to the next block without decoding it; it
	// returns false when the list is exhausted.
	NextBlock() bool
	// SeekBlock advances (never retreats) to the first block whose last
	// doc ID is >= d — the block that contains the first posting >= d if
	// one exists. It returns false when every remaining posting is < d.
	SeekBlock(d DocID) bool
	// BlockLast returns the last doc ID of the current block.
	BlockLast() DocID
	// BlockMaxTF returns the maximum TF within the current block.
	BlockMaxTF() float32
	// BlockLen returns the number of postings in the current block.
	BlockLen() int
	// Block decodes the current block and returns its postings. The slice
	// is owned by the cursor and only valid until the next Block call.
	Block() ([]Posting, error)
}

// DocID identifies a document in the index, dense from 0.
type DocID uint32

// TermID identifies an interned term. Build assigns IDs in sorted term
// order, so two builds of the same corpus produce identical indexes.
type TermID uint32

// Posting is one document entry in a term's postings list.
type Posting struct {
	Doc DocID
	TF  float32
}

// Index is an immutable inverted index storing block-compressed postings
// (see block.go for the layout). The in-memory format is the file format
// (serialize.go): the directory — sorted terms with their per-block
// summaries — and the document lengths are always resident, and the block
// bytes form one postings area laid out exactly as WriteTo writes it. That
// area is either resident (Builder.Build, MergeSegments, ReadIndex) or left
// in the file OpenIndex holds, in which case a cursor fetches each block it
// decodes with one ReadAt: a query that prunes a block never reads its
// bytes, so IO tracks the blocks scored rather than the lists touched, and
// a snapshot is searchable without a load phase. Safe for concurrent use:
// cursors carry their own read and decode buffers.
type Index struct {
	terms    map[string]TermID
	lists    []termList // the directory, in sorted term order (TermID order)
	docLen   []float32
	totalLen float64

	data      []byte   // the postings area when resident
	f         *os.File // the file holding it otherwise (OpenIndex)
	base      int64    // file offset of the postings area
	bytesRead atomic.Int64
}

// newIndex assembles an Index around a finished directory. totalLen is one
// float64 fold in document order — the order every producer (Builder,
// MergeSegments, the readers) shares, so AvgDocLen is bit-identical
// however the index came to be.
func newIndex(docLen []float32, lists []termList, data []byte) *Index {
	idx := &Index{terms: make(map[string]TermID, len(lists)), lists: lists, docLen: docLen, data: data}
	for _, l := range docLen {
		idx.totalLen += float64(l)
	}
	for i := range lists {
		idx.terms[lists[i].term] = TermID(i)
	}
	return idx
}

// areaLen returns the size of the postings area in bytes.
func (idx *Index) areaLen() int64 {
	if len(idx.lists) == 0 {
		return 0
	}
	last := &idx.lists[len(idx.lists)-1]
	return last.offset + last.dataLen()
}

// Builder accumulates documents and produces an Index. Documents receive
// consecutive DocIDs in insertion order. The zero value is ready to use.
type Builder struct {
	terms    map[string]TermID
	postings [][]Posting
	docLen   []float32
	scratch  []string // Add's sorted copy of one document's terms, reused
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{terms: make(map[string]TermID)}
}

// Add indexes a document given its (already analyzed) terms and returns the
// assigned DocID. Duplicate terms raise the term frequency: the terms are
// sorted into a reused scratch slice and each run of equal terms is one
// posting, so the fold order is AddWeighted's and the index is the same
// bytes either way.
func (b *Builder) Add(terms []string) DocID {
	b.scratch = append(b.scratch[:0], terms...)
	sort.Strings(b.scratch)
	doc := b.nextDoc()
	var total float32
	for i := 0; i < len(b.scratch); {
		j := i + 1
		for j < len(b.scratch) && b.scratch[j] == b.scratch[i] {
			j++
		}
		c := float32(j - i)
		b.post(b.scratch[i], doc, c)
		total += c
		i = j
	}
	b.docLen = append(b.docLen, total)
	return doc
}

// AddWeighted indexes a document from explicit term weights (the BON model
// supplies node-frequency weights directly). Terms are folded in sorted
// order so the document length — a float32 sum, sensitive to addition
// order — is identical across runs; together with Build's canonical TermID
// assignment this makes serialized indexes byte-deterministic.
func (b *Builder) AddWeighted(counts map[string]float32) DocID {
	doc := b.nextDoc()
	keys := make([]string, 0, len(counts))
	for t := range counts {
		keys = append(keys, t)
	}
	sort.Strings(keys)
	var total float32
	for _, t := range keys {
		c := counts[t]
		b.post(t, doc, c)
		total += c
	}
	b.docLen = append(b.docLen, total)
	return doc
}

// nextDoc returns the DocID the next document receives.
func (b *Builder) nextDoc() DocID {
	if b.terms == nil {
		b.terms = make(map[string]TermID)
	}
	return DocID(len(b.docLen))
}

// post appends one posting to a term's list. Documents arrive in DocID
// order, so every list stays sorted without a sort at Build.
func (b *Builder) post(t string, doc DocID, tf float32) {
	id, ok := b.terms[t]
	if !ok {
		id = TermID(len(b.postings))
		b.terms[t] = id
		b.postings = append(b.postings, nil)
	}
	b.postings[id] = append(b.postings[id], Posting{Doc: doc, TF: tf})
}

// Build finalizes the index: term IDs are canonicalized to sorted term
// order and every postings list is compressed into the block layout. The
// Builder must not be used afterwards.
func (b *Builder) Build() *Index {
	names := make([]string, 0, len(b.terms))
	for t := range b.terms {
		names = append(names, t)
	}
	sort.Strings(names)
	total := 0
	for _, pl := range b.postings {
		total += len(pl)
	}
	lists := make([]termList, len(names))
	data := make([]byte, 0, total*3)
	for i, t := range names {
		lists[i], data = appendBlocks(data, t, b.postings[b.terms[t]])
	}
	idx := newIndex(b.docLen, lists, data)
	b.terms, b.postings, b.docLen, b.scratch = nil, nil, nil, nil
	return idx
}

// NumDocs returns the number of indexed documents.
func (idx *Index) NumDocs() int { return len(idx.docLen) }

// NumTerms returns the vocabulary size.
func (idx *Index) NumTerms() int { return len(idx.lists) }

// DocLen returns the total term weight of a document.
func (idx *Index) DocLen(d DocID) float64 { return float64(idx.docLen[d]) }

// AvgDocLen returns the mean document length.
func (idx *Index) AvgDocLen() float64 {
	if len(idx.docLen) == 0 {
		return 0
	}
	return idx.totalLen / float64(len(idx.docLen))
}

// TermCursor implements Source. Cursors come from a pool (pool.go);
// callers that finish a traversal may hand them back with ReleaseCursor.
func (idx *Index) TermCursor(term string) Cursor {
	id, ok := idx.terms[term]
	if !ok {
		return nil
	}
	c := cursorPool.Get().(*cursor)
	c.idx, c.tl, c.bi = idx, &idx.lists[id], -1
	return c
}

// DF returns the document frequency of a term.
func (idx *Index) DF(term string) int {
	id, ok := idx.terms[term]
	if !ok {
		return 0
	}
	return idx.lists[id].count
}

// Postings materializes the full postings list of a term, sorted by DocID
// (nil if the term is absent), by walking its cursor to the end. The TopK
// oracle and tests use it, while the query hot path stays on TermCursor and
// decodes only the blocks it visits, and MergeSegments decodes each list
// into its own reused buffer. A read or decode failure is returned, never
// folded into an empty list.
func Postings(src Source, term string) ([]Posting, error) {
	c := src.TermCursor(term)
	if c == nil {
		return nil, nil
	}
	defer ReleaseCursor(c)
	out := make([]Posting, 0, c.Count())
	for c.NextBlock() {
		pl, err := c.Block()
		if err != nil {
			return nil, fmt.Errorf("index: term %q: %w", term, err)
		}
		out = append(out, pl...)
	}
	return out, nil
}

// String summarizes the index.
func (idx *Index) String() string {
	return fmt.Sprintf("index{docs=%d terms=%d avgLen=%.1f}",
		idx.NumDocs(), idx.NumTerms(), idx.AvgDocLen())
}
