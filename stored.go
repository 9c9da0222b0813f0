package newslink

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
	"unsafe"

	"newslink/internal/nlp"
)

// A segment's stored fields are its documents. They live in memory or in
// the segment's own snapshot artifact, the way its postings do
// (index.Index): resident ([]Document) in a segment built, merged or
// restored by Load; file-backed in one restored by LoadOnDisk or
// LoadRouted, which keeps only the ID, time and offset columns of
// seg-<id>.docs.bin resident and reads a document's title and text with
// one ReadAt when a request asks for it.
//
// A document's subgraph embedding is not stored: it is a function of the
// document's text and the engine's graph, and Explain, ExplainDOT and
// Related re-derive it from the text (Engine.docEmbedding).
//
// A read that fails fails the request: it never turns into an empty
// document (DESIGN.md §9).

// docStore is a segment's documents: resident in docs, or file-backed.
type docStore struct {
	docs []Document

	f    *os.File // the documents artifact; nil when resident
	size int64    // its size
	ids  []int    // the ID column
	offs []byte   // the validated offset column (docsfile.go)
	area int64    // where the text area starts in the file
}

// openDocs is the one reader of the documents artifact. It opens the
// artifact at path file-backed: the header and the offset column are
// validated against the file's size, and the ID and time columns are read;
// the titles and texts stay in the file (readIn reads them). It returns
// the store and the time column.
func openDocs(path string) (d docStore, times []int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return docStore{}, nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return docStore{}, nil, err
	}
	l, offs, err := readDocsHead(f, st.Size())
	if err != nil {
		return docStore{}, nil, err
	}
	cols := make([]byte, l.offs-l.ids) // the ID column, then the time column
	if err := readAt(f, cols, l.ids); err != nil {
		return docStore{}, nil, fmt.Errorf("reading IDs and times: %w", err)
	}
	le := binary.LittleEndian
	d = docStore{f: f, size: st.Size(), ids: make([]int, l.n), offs: offs, area: l.area}
	times = make([]int64, l.n)
	for i := range d.ids {
		id := int64(le.Uint64(cols[8*i:]))
		if int64(int(id)) != id {
			return docStore{}, nil, fmt.Errorf("document %d: ID %d overflows int", i, id)
		}
		d.ids[i], times[i] = int(id), int64(le.Uint64(cols[8*(l.n+i):]))
	}
	return d, times, nil
}

// readIn makes a file-backed store resident: the text area is read,
// streaming through buf, into one string that every title and text slices
// — one allocation per segment, not two per document — and the file is
// closed. times is the column openDocs returned.
func (d *docStore) readIn(times []int64, buf []byte) error {
	areaLen := d.size - d.area
	var sb strings.Builder
	sb.Grow(int(areaLen))
	if _, err := io.CopyBuffer(&sb, io.NewSectionReader(d.f, d.area, areaLen), buf); err != nil {
		return fmt.Errorf("reading text: %w", err)
	}
	if int64(sb.Len()) != areaLen {
		return fmt.Errorf("reading text: %w", io.ErrUnexpectedEOF)
	}
	area := sb.String()
	le := binary.LittleEndian
	docs := make([]Document, len(d.ids))
	for i := range docs {
		t0, t1, t2 := le.Uint64(d.offs[16*i:]), le.Uint64(d.offs[16*i+8:]), le.Uint64(d.offs[16*i+16:])
		docs[i] = Document{ID: d.ids[i], Title: area[t0:t1], Text: area[t1:t2], Time: times[i]}
	}
	err := d.close()
	*d = docStore{docs: docs}
	return err
}

func (d *docStore) id(i int) int {
	if d.f == nil {
		return d.docs[i].ID
	}
	return d.ids[i]
}

// text returns document i's title and text. A file-backed store reads
// both with one ReadAt into *scratch, grown as needed, and the strings
// alias it until the next read into it; with scratch nil they get a
// buffer of their own.
func (d *docStore) text(i int, scratch *[]byte) (title, text string, err error) {
	if d.f == nil {
		return d.docs[i].Title, d.docs[i].Text, nil
	}
	le := binary.LittleEndian
	t0, t1, t2 := le.Uint64(d.offs[16*i:]), le.Uint64(d.offs[16*i+8:]), le.Uint64(d.offs[16*i+16:])
	n := int(t2 - t0)
	var b []byte
	if scratch == nil {
		b = make([]byte, n)
	} else {
		if cap(*scratch) < n {
			*scratch = make([]byte, n)
		}
		b = (*scratch)[:n]
	}
	if err := readAt(d.f, b, d.area+int64(t0)); err != nil {
		return "", "", fmt.Errorf("newslink: reading document %d: %w", d.ids[i], err)
	}
	// The strings view b without a copy: b is either fresh and never
	// written again, or the caller's scratch, which it does not reuse
	// while it holds them.
	both := unsafe.String(unsafe.SliceData(b), n)
	return both[:t1-t0], both[t1-t0:], nil
}

// writeTo writes the documents artifact: encoded from a resident store,
// copied byte for byte from a file-backed one's file.
func (d *docStore) writeTo(w io.Writer) error {
	if d.f == nil {
		return writeDocs(w, d.docs)
	}
	return copyAt(w, d.f, d.size)
}

func (d *docStore) close() error { return closeFile(d.f) }

// copyAt writes the first size bytes of r to w; an r that has become
// shorter (a truncated file) is an error.
func copyAt(w io.Writer, r io.ReaderAt, size int64) error {
	n, err := io.Copy(w, io.NewSectionReader(r, 0, size))
	if err == nil && n < size { // a short file ends the section early, without an error
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("copying: %w", err)
	}
	return nil
}

func closeFile(f *os.File) error {
	if f == nil {
		return nil
	}
	return f.Close()
}

// result materializes the search result at local position i: the
// document's ID and title, and the best sentence of its text for snippets
// (none when snippets is nil). A file-backed segment reads the document
// into *scratch and copies out only the title and the snippet, in one
// allocation, so what a result keeps does not grow with the document.
func (s *segment) result(i int, snippets *nlp.TermSet, scratch *[]byte) (Result, error) {
	title, text, err := s.docs.text(i, scratch)
	if err != nil {
		return Result{}, err
	}
	r := Result{ID: s.docs.id(i), Title: title}
	if snippets != nil {
		r.Snippet = snippets.BestSentence(text)
	}
	if s.docs.f != nil {
		var sb strings.Builder
		sb.Grow(len(r.Title) + len(r.Snippet))
		sb.WriteString(r.Title)
		sb.WriteString(r.Snippet)
		both := sb.String()
		r.Title, r.Snippet = both[:len(r.Title)], both[len(r.Title):]
	}
	return r, nil
}
