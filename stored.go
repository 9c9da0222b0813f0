package newslink

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"sync"
	"unsafe"

	"newslink/internal/nlp"
)

// A segment's stored fields are its documents. A segment built or merged
// in this process holds them as a []Document; one restored from a
// snapshot reads its seg-<id>.docs.bin (docsfile.go) through an open
// descriptor: the ID, time and offset columns are copied out at load, and
// a document's title and text are read with one pread when a request asks
// for them, the way Lucene reads a hit's stored fields. The artifact is
// never mapped, so the process keeps none of it resident.
//
// A document's subgraph embedding is not stored: it is a function of the
// document's text and the engine's graph, and Explain, ExplainDOT and
// Related re-derive it from the text (Engine.docEmbedding).
//
// A read that comes up short or fails (the artifact was truncated under
// the engine) is the request's error, returned through doc, result and
// gather: it never turns into an empty document (DESIGN.md §9).

// docStore is a segment's documents: resident in docs, or on disk in file.
type docStore struct {
	docs []Document

	file io.ReaderAt // the documents artifact; nil when resident
	ids  []int       // the ID column
	offs []int64     // the offset column, as positions in the artifact; the last is its size at load
}

// openDocs reads the columns of the documents artifact in file, of the
// given size: the header with one read and the column prefix with a
// second. The header and the offset column are validated against the
// size, and the ID, time and offset columns are copied out. It returns
// the store, which reads titles and texts from file, and the time column.
func openDocs(file io.ReaderAt, size int64) (docStore, []int64, error) {
	head := make([]byte, min(size, int64(docsHeaderSize)))
	if _, err := file.ReadAt(head, 0); err != nil {
		return docStore{}, nil, err
	}
	l, err := parseDocsHeader(head, size)
	if err != nil {
		return docStore{}, nil, err
	}
	cols := make([]byte, l.area)
	if _, err := file.ReadAt(cols, 0); err != nil {
		return docStore{}, nil, err
	}
	if err := l.checkOffsets(cols[l.offs:]); err != nil {
		return docStore{}, nil, err
	}
	le := binary.LittleEndian
	d := docStore{file: file, ids: make([]int, l.n), offs: make([]int64, 2*l.n+1)}
	times := make([]int64, l.n)
	for i := range d.ids {
		id := int64(le.Uint64(cols[l.ids+8*int64(i):]))
		if int64(int(id)) != id {
			return docStore{}, nil, fmt.Errorf("document %d: ID %d overflows int", i, id)
		}
		d.ids[i], times[i] = int(id), int64(le.Uint64(cols[l.ids+8*int64(l.n+i):]))
	}
	for k := range d.offs {
		d.offs[k] = l.area + int64(le.Uint64(cols[l.offs+8*int64(k):]))
	}
	return d, times, nil
}

func (d *docStore) onDisk() bool { return d.file != nil }

func (d *docStore) id(i int) int {
	if !d.onDisk() {
		return d.docs[i].ID
	}
	return d.ids[i]
}

// read reads document i's title and text from the artifact into *buf,
// growing it when it is too small. Both strings alias *buf.
func (d *docStore) read(i int, buf *[]byte) (title, text string, err error) {
	t0, t1, t2 := d.offs[2*i], d.offs[2*i+1], d.offs[2*i+2]
	if t2 == t0 {
		return "", "", nil
	}
	if int64(cap(*buf)) < t2-t0 {
		*buf = make([]byte, t2-t0)
	}
	b := (*buf)[:t2-t0]
	if _, err := d.file.ReadAt(b, t0); err != nil {
		return "", "", fmt.Errorf("newslink: reading stored document %d: %w", i, err)
	}
	both := unsafe.String(unsafe.SliceData(b), len(b))
	return both[:t1-t0], both[t1-t0:], nil
}

// writeTo writes the documents artifact: encoded from a resident store,
// copied from the artifact, exactly its size at load, for one on disk. A
// read that comes up short fails the write.
func (d *docStore) writeTo(w io.Writer) error {
	if !d.onDisk() {
		return writeDocs(w, d.docs)
	}
	size := d.offs[len(d.offs)-1]
	_, err := io.CopyN(w, io.NewSectionReader(d.file, 0, size), size)
	return err
}

// copied returns copies of a and b that share one allocation.
func copied(a, b string) (string, string) {
	var sb strings.Builder
	sb.Grow(len(a) + len(b))
	sb.WriteString(a)
	sb.WriteString(b)
	both := sb.String()
	return both[:len(a)], both[len(a):]
}

// doc returns the document at local position i; a stored document is read
// into one fresh allocation, which its title and text share.
func (s *segment) doc(i int) (Document, error) {
	if !s.docs.onDisk() {
		return s.docs.docs[i], nil
	}
	var buf []byte
	title, text, err := s.docs.read(i, &buf)
	if err != nil {
		return Document{}, err
	}
	return Document{ID: s.docs.ids[i], Title: title, Text: text, Time: s.times[i]}, nil
}

// readBufs pools the buffers result reads stored documents into.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// result materializes the search result at local position i: the
// document's ID and title, and the best sentence of its text for snippets
// (none when snippets is nil). A stored document is read into a pooled
// buffer and its snippet picked there; the title and snippet are copied
// out, in one allocation, so what a result keeps does not grow with the
// document.
func (s *segment) result(i int, snippets *nlp.TermSet) (Result, error) {
	if !s.docs.onDisk() {
		d := &s.docs.docs[i]
		r := Result{ID: d.ID, Title: d.Title}
		if snippets != nil {
			r.Snippet = snippets.BestSentence(d.Text)
		}
		return r, nil
	}
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
	title, text, err := s.docs.read(i, buf)
	if err != nil {
		return Result{}, err
	}
	var snippet string
	if snippets != nil {
		snippet = snippets.BestSentence(text)
	}
	r := Result{ID: s.docs.ids[i]}
	r.Title, r.Snippet = copied(title, snippet)
	return r, nil
}
