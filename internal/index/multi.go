package index

import "sort"

// Multi is a Source over several index segments, the Lucene-style shape of
// incremental indexing: a built (possibly disk-backed) base plus freshly
// built segments. Document IDs are remapped by concatenation — segment i's
// documents follow all documents of segments 0..i-1.
type Multi struct {
	parts   []Source
	bases   []DocID   // bases[i] = first DocID of parts[i]
	ends    []float64 // ends[i] = the length fold after parts[i]
	numDocs int
}

// NewMulti combines segments in order. Nested Multis are flattened so long
// segment chains stay one level deep.
func NewMulti(parts ...Source) *Multi { return NewMultiFrom(nil, parts...) }

// NewMultiFrom is NewMulti(parts...) for a caller that holds the Multi it
// replaces: the leading parts the two share (pointer-equal, in order) keep
// prev's length fold up to their last boundary, so only the parts after
// that common prefix are walked. prev may be nil. The result is the same
// as NewMulti(parts...), AvgDocLen bits included.
func NewMultiFrom(prev *Multi, parts ...Source) *Multi {
	m := &Multi{parts: make([]Source, 0, len(parts)), bases: make([]DocID, 0, len(parts)), ends: make([]float64, 0, len(parts))}
	var add func(s Source)
	add = func(s Source) {
		if inner, ok := s.(*Multi); ok {
			for _, p := range inner.parts {
				add(p)
			}
			return
		}
		i := len(m.parts)
		m.bases = append(m.bases, DocID(m.numDocs))
		m.parts = append(m.parts, s)
		m.numDocs += s.NumDocs()
		// Continue one float64 fold in document order — bit-identical to
		// what a single Builder over the concatenated corpus computes — so
		// AvgDocLen (hence BM25 scores) cannot drift between a segmented and
		// a single-segment build. A part prev held at the same place, after
		// the same parts, ends where it ended in prev; any other part is
		// walked, once per publish, never on the query path.
		if prev != nil && i < len(prev.parts) && prev.parts[i] == s {
			m.ends = append(m.ends, prev.ends[i])
			return
		}
		prev = nil // past the common prefix: nothing further is shared
		total := m.totalLen()
		for d, n := 0, s.NumDocs(); d < n; d++ {
			total += s.DocLen(DocID(d))
		}
		m.ends = append(m.ends, total)
	}
	for _, p := range parts {
		add(p)
	}
	return m
}

// totalLen is the length fold over every part.
func (m *Multi) totalLen() float64 {
	if len(m.ends) == 0 {
		return 0
	}
	return m.ends[len(m.ends)-1]
}

// NumDocs implements Source.
func (m *Multi) NumDocs() int { return m.numDocs }

// NumSegments returns the number of flattened segments.
func (m *Multi) NumSegments() int { return len(m.parts) }

// DocLen implements Source.
func (m *Multi) DocLen(d DocID) float64 {
	i := m.segmentOf(d)
	return m.parts[i].DocLen(d - m.bases[i])
}

// segmentOf locates the segment containing d.
func (m *Multi) segmentOf(d DocID) int {
	return sort.Search(len(m.bases), func(i int) bool { return m.bases[i] > d }) - 1
}

// AvgDocLen implements Source.
func (m *Multi) AvgDocLen() float64 {
	if m.numDocs == 0 {
		return 0
	}
	return m.totalLen() / float64(m.numDocs)
}

// DF implements Source.
func (m *Multi) DF(term string) int {
	df := 0
	for _, p := range m.parts {
		df += p.DF(term)
	}
	return df
}

// TermCursor implements Source: a cursor that walks each segment's blocks
// in order with the segment's DocID base applied. The ascending bases keep
// the global block sequence sorted.
// Cursors come from a pool (pool.go); ReleaseCursor hands them — and their
// per-segment sub-cursors — back.
func (m *Multi) TermCursor(term string) Cursor {
	c := multiCursorPool.Get().(*multiCursor)
	c.pi, c.count, c.maxTF = 0, 0, 0
	for i, p := range m.parts {
		sc := p.TermCursor(term)
		if sc == nil {
			continue
		}
		if sc.Count() == 0 {
			ReleaseCursor(sc)
			continue
		}
		c.parts = append(c.parts, sc)
		c.bases = append(c.bases, m.bases[i])
		c.count += sc.Count()
		if sc.MaxTF() > c.maxTF {
			c.maxTF = sc.MaxTF()
		}
	}
	if len(c.parts) == 0 {
		multiCursorPool.Put(c)
		return nil
	}
	return c
}

// multiCursor concatenates per-segment cursors, rebasing doc IDs.
type multiCursor struct {
	parts []Cursor
	bases []DocID
	pi    int
	count int
	maxTF float32
	buf   []Posting
}

func (c *multiCursor) Count() int          { return c.count }
func (c *multiCursor) MaxTF() float32      { return c.maxTF }
func (c *multiCursor) BlockLen() int       { return c.parts[c.pi].BlockLen() }
func (c *multiCursor) BlockLast() DocID    { return c.parts[c.pi].BlockLast() + c.bases[c.pi] }
func (c *multiCursor) BlockMaxTF() float32 { return c.parts[c.pi].BlockMaxTF() }

func (c *multiCursor) NextBlock() bool {
	for c.pi < len(c.parts) {
		if c.parts[c.pi].NextBlock() {
			return true
		}
		c.pi++
	}
	return false
}

func (c *multiCursor) SeekBlock(d DocID) bool {
	for c.pi < len(c.parts) {
		base := c.bases[c.pi]
		rel := DocID(0)
		if d > base {
			rel = d - base
		}
		if c.parts[c.pi].SeekBlock(rel) {
			return true
		}
		c.pi++
	}
	return false
}

// Block decodes the current segment block and rebases its doc IDs into a
// cursor-owned buffer.
func (c *multiCursor) Block() ([]Posting, error) {
	pl, err := c.parts[c.pi].Block()
	if err != nil {
		return nil, err
	}
	if cap(c.buf) < len(pl) {
		c.buf = make([]Posting, 0, blockSize)
	}
	c.buf = c.buf[:0]
	base := c.bases[c.pi]
	for _, p := range pl {
		c.buf = append(c.buf, Posting{Doc: p.Doc + base, TF: p.TF})
	}
	return c.buf, nil
}

var _ Source = (*Multi)(nil)
var _ Source = (*Index)(nil)
