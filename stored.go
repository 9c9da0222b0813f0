package newslink

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"unsafe"

	"newslink/internal/core"
	"newslink/internal/kg"
	"newslink/internal/nlp"
)

// A segment's stored fields — its documents and their subgraph embeddings
// — live in memory or in the segment's own snapshot artifacts, the way its
// postings do (index.Index).
//
// Embeddings have one representation either way: the emb.bin image
// (core.WriteEmbeddings). A segment built, merged or restored by Load holds
// the image in memory; one restored by LoadOnDisk or LoadRouted leaves it
// in the file. The store keeps where each document's record starts and
// decodes a record only when Explain, ExplainDOT or Related asks for it; a
// merge copies records without decoding them, and Save writes the image as
// it is.
//
// Documents are resident ([]Document) in a segment built, merged or
// restored by Load. A file-backed store (LoadOnDisk, LoadRouted) keeps only
// the ID, time and offset columns of seg-<id>.docs.bin resident, and reads
// a document's title and text with one ReadAt when a request asks for it.
//
// A read that fails fails the request: it never turns into an empty
// document or embedding (DESIGN.md §9).

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

// embStore is a segment's subgraph embeddings, aligned with its documents:
// an emb.bin image and where each document's record starts in it.
type embStore struct {
	image io.ReaderAt // in memory (*bytes.Reader), or the open artifact
	offs  []int64     // document i's record is [offs[i], offs[i+1]) of image
	g     *kg.Graph   // what the records decode against
}

// openEmbeddings opens the embeddings artifact at path: left in the file
// when onDisk, read into memory otherwise. One sequential pass through buf
// validates the image as core.ReadEmbeddings would and records where each
// document's record starts; nothing is decoded.
func openEmbeddings(path string, g *kg.Graph, onDisk bool, buf []byte) (embStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return embStore{}, err
	}
	s := embStore{image: f, g: g}
	st, err := f.Stat()
	if err == nil && !onDisk {
		data := make([]byte, st.Size())
		err = readAt(f, data, 0)
		f.Close()
		s.image = bytes.NewReader(data)
	}
	if err == nil {
		s.offs, err = core.ScanEmbeddings(s.image, st.Size(), g, buf)
	}
	if err != nil {
		s.close()
		return embStore{}, err
	}
	return s, nil
}

// len is how many documents the store covers.
func (s *embStore) len() int { return len(s.offs) - 1 }

// recordLen is the length of document i's record.
func (s *embStore) recordLen(i int) int64 { return s.offs[i+1] - s.offs[i] }

// appendRecord appends document i's record to b.
func (s *embStore) appendRecord(b []byte, i int) ([]byte, error) {
	n := int(s.recordLen(i))
	b = slices.Grow(b, n)
	if err := readAt(s.image, b[len(b):len(b)+n], s.offs[i]); err != nil {
		return nil, fmt.Errorf("newslink: reading embedding at %d: %w", s.offs[i], err)
	}
	return b[:len(b)+n], nil
}

// embedding reads and decodes document i's embedding (nil for an
// unembeddable document).
func (s *embStore) embedding(i int) (*core.DocEmbedding, error) {
	rec, err := s.appendRecord(nil, i)
	if err != nil {
		return nil, err
	}
	emb, err := core.ReadEmbedding(rec, s.g)
	if err != nil {
		return nil, fmt.Errorf("newslink: decoding embedding at %d: %w", s.offs[i], err)
	}
	return emb, nil
}

// writeTo writes the embeddings artifact: the image, byte for byte.
func (s *embStore) writeTo(w io.Writer) error { return copyAt(w, s.image, s.offs[len(s.offs)-1]) }

func (s *embStore) close() error {
	if c, ok := s.image.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

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
