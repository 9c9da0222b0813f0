package newslink

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"newslink/internal/index"
	"newslink/internal/nlp"
)

// The engine's searchable state is a set of immutable segments, the
// Lucene-style lifecycle (DESIGN.md §11):
//
//	Add/AddAll  → documents accumulate in the open (un-searchable) segment
//	Refresh     → the open segment is sealed, appended, and the tiered
//	              merge policy compacts runs of small segments
//	Delete      → a copy-on-write tombstone bit; the document vanishes
//	              from results immediately but keeps contributing to
//	              DF/AvgDocLen until a merge rewrites its segment
//	Compact     → everything merges into one tombstone-free segment
//
// Readers never lock: they load the published *segmentSet atomically and
// work against it for the whole request.

// segment owns one immutable slice of the corpus: its documents (local
// positions 0..n-1), its two inverted indexes over those positions, and
// the tombstone bitmap marking deleted documents. The documents are a
// []Document or the docs.bin columns (stored.go). Its indexes are on the
// heap whether it was built, merged or loaded: a segment restored from a
// snapshot parsed each index out of a buffer it read the artifact into,
// and reads its documents through an open descriptor, which the engine or
// Shard that loaded it owns and its Close releases. All fields are
// immutable after construction — deletes clone the segment with a new
// bitmap, sharing everything else, the descriptor included — except art, a
// memoized snapshot-artifact identity that is computed on first Save and
// carried along (tombstones are not part of the artifact identity: they
// live in meta.json, so a delete never forces a segment rewrite on disk).
type segment struct {
	docs  docStore
	times []int64 // columnar Document.Time, one per document
	byID  []int32 // local positions sorted by Document.ID
	text  *index.Index
	node  *index.Index
	dead  *index.Bitmap // nil = no deletes

	art atomic.Pointer[segmentArtifact]
}

// newSegment assembles a resident segment over docs and the two indexes,
// and builds the two per-document columns — the time column and the ID
// order — once, at seal or merge.
func newSegment(docs []Document, text, node *index.Index) *segment {
	s := &segment{docs: docStore{docs: docs}, times: timesOf(docs), text: text, node: node}
	s.byID = idOrder(&s.docs, len(docs))
	return s
}

// timesOf extracts the columnar time store from a document slice: one
// int64 per document, so temporal filters read a flat column instead of
// chasing Document structs per candidate.
func timesOf(docs []Document) []int64 {
	times := make([]int64, len(docs))
	for i, d := range docs {
		times[i] = d.Time
	}
	return times
}

// idOrder returns the local positions of the n documents of d sorted by
// Document.ID, ties in position order: what a lookup by ID
// binary-searches.
func idOrder(d *docStore, n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(d.id(int(a)), d.id(int(b))), cmp.Compare(a, b))
	})
	return order
}

// position returns the local position of the live document with the given
// ID, if the segment holds one.
func (s *segment) position(id int) (int, bool) {
	k, _ := slices.BinarySearchFunc(s.byID, id, func(p int32, id int) int { return cmp.Compare(s.docs.id(int(p)), id) })
	for ; k < len(s.byID) && s.docs.id(int(s.byID[k])) == id; k++ {
		if local := int(s.byID[k]); !s.dead.Get(local) {
			return local, true
		}
	}
	return 0, false
}

func (s *segment) numDocs() int { return len(s.times) }
func (s *segment) numLive() int { return s.numDocs() - s.dead.Count() }

// shareArtifact copies the memoized artifact identity from an older
// incarnation of the same segment (tombstone clones share it).
func (s *segment) shareArtifact(from *segment) {
	if a := from.art.Load(); a != nil {
		s.art.Store(a)
	}
}

// segmentArtifact names a segment's on-disk artifacts: a content-derived
// id plus the CRC32-C of each file, enabling content-addressed reuse
// across incremental saves (persist.go).
type segmentArtifact struct {
	id   string
	sums map[string]string // artifact file name -> CRC32-C hex
}

// segmentSet is one published, immutable view of the searchable corpus:
// the ordered segments, the global-position bookkeeping over their
// concatenation, and the combined index sources the retrieval tier reads.
// The engine swaps the current set atomically (Engine.set), so readers get
// a consistent view with a single atomic load.
type segmentSet struct {
	segs    []*segment
	bases   []int   // bases[i] = global position of segs[i]'s first document
	numDocs int     // including tombstoned documents
	deleted int     // tombstoned documents across all segments
	times   []int64 // concatenated per-segment time columns, indexed by global position

	// rawText and rawNode are the set's indexes: the single segment's own
	// index when possible, an index.Multi otherwise. dead is the set-wide
	// tombstone bitmap over global positions (nil when nothing is
	// deleted). text and node are what unfiltered searches traverse — the
	// raw sources behind index.Masked(dead), so deleted documents are
	// masked out of retrieval; textSource and nodeSource compose a request
	// filter into the same single mask.
	rawText, rawNode index.Source
	dead             *index.Bitmap
	text, node       index.Source
}

// textSource and nodeSource return the set's text and node source for one
// request: the published one when flt is nil, otherwise the raw index
// behind one mask carrying both the tombstones and the request's filter.
func (s *segmentSet) textSource(flt *queryFilter) index.Source {
	if flt == nil {
		return s.text
	}
	return index.Masked(s.rawText, s.dead, flt)
}

func (s *segmentSet) nodeSource(flt *queryFilter) index.Source {
	if flt == nil {
		return s.node
	}
	return index.Masked(s.rawNode, s.dead, flt)
}

// newSegmentSet builds the published view over segs from prev, the view
// it replaces (nil for the first one). It runs on the write path only —
// build, refresh, delete, merge — never per query, and costs O(segments)
// plus what segs holds that prev did not: lookups by ID search the
// segments' own ID orders, and the time column and the length folds
// continue prev's over the segments the two share, so a delete or a
// one-document refresh never walks the corpus. Only the set-wide
// tombstone bitmap, one bit per document, is rebuilt every time.
//
// Continuing prev.times appends past its length, into spare capacity of
// the array prev's readers index: nothing they read is written. That holds
// because sets form one chain — every set is built from the one published
// before it, under e.mu, and published at once — so no two sets ever
// append onto the same prev.
func newSegmentSet(prev *segmentSet, segs []*segment) *segmentSet {
	s := &segmentSet{segs: segs, bases: make([]int, len(segs))}
	for i, sg := range segs {
		s.bases[i] = s.numDocs
		s.deleted += sg.dead.Count()
		s.numDocs += sg.numDocs()
	}
	s.times = timesAfter(prev, segs, s.numDocs)
	if len(segs) == 1 {
		// Single segment: serve its index directly, so a compacted engine
		// is indistinguishable — allocation and layout included — from one
		// built in a single batch.
		s.rawText, s.rawNode = segs[0].text, segs[0].node
	} else {
		texts := make([]index.Source, len(segs))
		nodes := make([]index.Source, len(segs))
		for i, sg := range segs {
			texts[i], nodes[i] = sg.text, sg.node
		}
		var prevText, prevNode *index.Multi
		if prev != nil {
			prevText, _ = prev.rawText.(*index.Multi)
			prevNode, _ = prev.rawNode.(*index.Multi)
		}
		s.rawText, s.rawNode = index.NewMultiFrom(prevText, texts...), index.NewMultiFrom(prevNode, nodes...)
	}
	if s.deleted > 0 {
		s.dead = index.NewBitmap(s.numDocs)
		for i, sg := range segs {
			base := s.bases[i]
			sg.dead.ForEach(func(j int) { s.dead.Set(base + j) })
		}
	}
	s.text, s.node = index.Masked(s.rawText, s.dead, nil), index.Masked(s.rawNode, s.dead, nil)
	return s
}

// timesAfter returns the time column of a set over segs. When prev's
// segments lead segs with the same time columns (a refresh, or a delete,
// whose tombstone clone shares its column), only the new segments' columns
// are appended onto prev.times. Any other shape — a merge inside the list,
// a dropped segment — builds a fresh column, with room for the appends
// that follow it.
func timesAfter(prev *segmentSet, segs []*segment, numDocs int) []int64 {
	if prev != nil && len(prev.segs) <= len(segs) && slices.EqualFunc(prev.segs, segs[:len(prev.segs)], sameTimes) {
		times := prev.times
		for _, sg := range segs[len(prev.segs):] {
			times = append(times, sg.times...)
		}
		return times
	}
	times := make([]int64, 0, numDocs+numDocs/4)
	for _, sg := range segs {
		times = append(times, sg.times...)
	}
	return times
}

// sameTimes reports whether two segments share one time column.
func sameTimes(a, b *segment) bool {
	return len(a.times) == len(b.times) && (len(a.times) == 0 || &a.times[0] == &b.times[0])
}

func (s *segmentSet) numLive() int { return s.numDocs - s.deleted }

// position returns the global position of the live document with the given
// ID, searching the segments newest first. An ID is live in at most one
// segment, so the first match is the only one.
func (s *segmentSet) position(id int) (int, bool) {
	for si := len(s.segs) - 1; si >= 0; si-- {
		if local, ok := s.segs[si].position(id); ok {
			return s.bases[si] + local, true
		}
	}
	return 0, false
}

// segIndexOf locates the segment containing global position pos.
func (s *segmentSet) segIndexOf(pos int) (si, local int) {
	si = sort.Search(len(s.bases), func(i int) bool { return s.bases[i] > pos }) - 1
	return si, pos - s.bases[si]
}

// doc returns the document at a global position (segment.doc).
func (s *segmentSet) doc(pos int) (Document, error) {
	si, local := s.segIndexOf(pos)
	return s.segs[si].doc(local)
}

// result is the search result at a global position (segment.result).
func (s *segmentSet) result(pos int, snippets *nlp.TermSet) (Result, error) {
	si, local := s.segIndexOf(pos)
	return s.segs[si].result(local, snippets)
}

// Tiered merge policy. Segments are tiered geometrically by live-document
// count: a segment's tier is ⌊log_mergeFactor(live)⌋, so tier 0 holds
// segments of fewer than mergeFactor documents and each higher tier is
// mergeFactor times larger. When an adjacent run of at least mergeFactor
// same-tier segments exists, the whole run merges into one tombstone-free
// segment, one tier up. Adjacency is required — merging concatenates, and
// preserving document order is what keeps merged search results bitwise
// identical to the unmerged set (DESIGN.md §11). A streamed document is
// therefore rewritten about once per tier it climbs, at most about
// log_mergeFactor(corpus) times, and after every refresh the set holds at
// most mergeFactor−1 segments per tier (findMergeRun):
// (mergeFactor−1)·(segTier(corpus)+1) in all, which keeps per-query
// fan-out flat and postings blocks full enough for block-max pruning to
// bite.
const mergeFactor = 8

// segTier buckets a live-document count into its merge tier.
func segTier(live int) int {
	t := 0
	for ceil := mergeFactor; live >= ceil; ceil *= mergeFactor {
		t++
	}
	return t
}

// findMergeRun locates the smallest-tier adjacent run of at least
// mergeFactor segments of equal tier. Returns ok=false when no run
// qualifies.
//
// A segment counts at the tier of the largest segment sealed after it.
// Small segments followed by a larger one — a micro-batch larger than the
// ones before it, or a segment deletes shrank — would otherwise never sit
// next to a segment of their own tier again, and the set would grow
// without bound; promoted, they merge with their neighbours instead. The
// counted tiers never increase from left to right, so each tier is one
// contiguous block, and with no run left it holds at most mergeFactor−1
// segments. A set already in that order — what a stream of equal seals
// leaves — counts every segment at its own tier.
func findMergeRun(segs []*segment) (lo, hi int, ok bool) {
	tiers := make([]int, len(segs))
	top := 0
	for i := len(segs) - 1; i >= 0; i-- {
		top = max(top, segTier(segs[i].numLive()))
		tiers[i] = top
	}
	// Walk the tier blocks from the right, smallest tier first.
	for hi = len(segs); hi > 0; hi = lo {
		lo = hi - 1
		for lo > 0 && tiers[lo-1] == tiers[hi-1] {
			lo--
		}
		if hi-lo >= mergeFactor {
			return lo, hi, true
		}
	}
	return 0, 0, false
}

// mergeRun compacts a run of segments into one segment: live documents
// are concatenated in order and the indexes are rewritten tombstone-free
// (index.MergeSegments), so DF/AvgDocLen tighten to the surviving corpus
// and block-max summaries regain full blocks. The merged segment is heap
// resident: a loaded segment's documents are read out (segment.doc). A
// segment whose postings do not decode or whose documents do not read (a
// documents artifact truncated under the engine) fails the merge; the
// inputs are untouched and stay exact.
func mergeRun(segs []*segment) (*segment, error) {
	live := 0
	for _, sg := range segs {
		live += sg.numLive()
	}
	docs := make([]Document, 0, live)
	texts := make([]*index.Index, len(segs))
	nodes := make([]*index.Index, len(segs))
	deads := make([]*index.Bitmap, len(segs))
	for i, sg := range segs {
		texts[i], nodes[i], deads[i] = sg.text, sg.node, sg.dead
		for j := range sg.numDocs() {
			if sg.dead.Get(j) {
				continue
			}
			d, err := sg.doc(j)
			if err != nil {
				return nil, err
			}
			docs = append(docs, d)
		}
	}
	text, err := index.MergeSegments(texts, deads)
	if err != nil {
		return nil, fmt.Errorf("newslink: merging text indexes: %w", err)
	}
	node, err := index.MergeSegments(nodes, deads)
	if err != nil {
		return nil, fmt.Errorf("newslink: merging node indexes: %w", err)
	}
	return newSegment(docs, text, node), nil
}

// applyMergePolicyLocked repeatedly merges qualifying runs until the set
// is stable. A run that fails to merge is left as it is — the unmerged set
// is exact, and the next refresh retries — and counted in
// newslink_segment_merge_errors_total. Callers hold e.mu.
func (e *Engine) applyMergePolicyLocked(segs []*segment) []*segment {
	for {
		lo, hi, ok := findMergeRun(segs)
		if !ok {
			return segs
		}
		merged, err := mergeRun(segs[lo:hi])
		if err != nil {
			e.met.segmentMergeErrors.Inc()
			return segs
		}
		e.met.mergeObserve(merged)
		out := make([]*segment, 0, len(segs)-(hi-lo)+1)
		out = append(out, segs[:lo]...)
		out = append(out, merged)
		out = append(out, segs[hi:]...)
		segs = out
	}
}

// publishLocked installs a new segment set, dropping segments whose
// documents are all tombstoned (nothing left to serve or to save), and
// refreshes the segment gauges. Callers hold e.mu.
func (e *Engine) publishLocked(segs []*segment) {
	kept := make([]*segment, 0, len(segs))
	for _, sg := range segs {
		if sg.numLive() > 0 {
			kept = append(kept, sg)
		}
	}
	s := newSegmentSet(e.set.Load(), kept)
	e.set.Store(s)
	e.met.segments.Set(int64(len(s.segs)))
	e.met.liveDocs.Set(int64(s.numLive()))
	e.met.deletedDocs.Set(int64(s.deleted))
	e.met.docs.Set(int64(s.numLive() + len(e.pendDocs)))
}
