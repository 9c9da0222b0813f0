package index

import "sync"

// Cursor pooling.
//
// TermCursor hands out a fresh cursor per term per traversal; a fused
// query touches tens of terms across two indexes. Each cursor also owns
// decode scratch — a block-sized []Posting — so letting cursors die with
// the request throws the scratch away with them. The pools below recycle cursors (scratch
// attached) across requests; TermCursor implementations draw from them
// and ReleaseCursor returns them.
//
// Reuse is safe because cursors are single-owner by contract (Source.
// TermCursor: "every call returns an independent cursor") and release
// clears every reference to the index that produced the cursor, so a
// pooled cursor pins no segment memory while it waits.
var (
	cursorPool      = sync.Pool{New: func() any { return new(cursor) }}
	multiCursorPool = sync.Pool{New: func() any { return new(multiCursor) }}
)

// ReleaseCursor returns a cursor obtained from Source.TermCursor to its
// implementation's pool, keeping its decode buffers warm for the next
// request. The cursor (and any postings slice its Block returned) must not
// be used afterwards. Cursors of unknown implementations are ignored, so
// callers may release unconditionally; nil is a no-op.
func ReleaseCursor(c Cursor) {
	switch c := c.(type) {
	case *cursor:
		c.idx, c.tl = nil, nil
		cursorPool.Put(c)
	case *multiCursor:
		for _, p := range c.parts {
			ReleaseCursor(p)
		}
		c.parts = c.parts[:0]
		c.bases = c.bases[:0]
		multiCursorPool.Put(c)
	}
}
