package newslink

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
	"unsafe"

	"newslink/internal/core"
	"newslink/internal/kg"
	"newslink/internal/nlp"
)

// A segment's stored fields — its documents and their subgraph embeddings
// — live in one of two places, the way its postings do (index.Index): in
// memory, for a segment built or merged by the engine and for one restored
// by Load; or in the segment's own snapshot artifacts, for one restored by
// LoadOnDisk or LoadRouted. A file-backed store keeps only what lookups,
// filters and reads need resident — the ID, time and offset columns of
// seg-<id>.docs.bin and each embedding record's offset in seg-<id>.emb.bin
// — and reads a document's title and text, or an embedding, with one
// ReadAt when a request asks for it. A read that fails fails the request:
// it never turns into an empty document or embedding (DESIGN.md §9).

// docStore is a segment's documents: resident in docs, or file-backed.
type docStore struct {
	docs []Document

	f    *os.File // the documents artifact; nil when resident
	size int64    // its size
	ids  []int    // the ID column
	offs []byte   // the validated offset column (docsfile.go)
	area int64    // where the text area starts in the file
}

// openDocs opens the documents artifact at path file-backed: its header
// and offset column are validated as readDocs validates them, and the ID
// and time columns are read; the titles and texts stay in the file. It
// returns the store and the time column.
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
	return copyFile(w, d.f, d.size)
}

func (d *docStore) close() error { return closeFile(d.f) }

// embStore is a segment's subgraph embeddings, aligned with its documents
// (nil entries for unembeddable documents): resident in embs, or
// file-backed.
type embStore struct {
	embs []*core.DocEmbedding

	f    *os.File  // the embeddings artifact; nil when resident
	offs []int64   // document i's record is [offs[i], offs[i+1]) of f
	g    *kg.Graph // what the records were validated against
}

// openEmbeddings opens the embeddings artifact at path file-backed: one
// sequential pass through buf validates it as core.ReadEmbeddings would
// and records where each document's record starts; nothing is decoded.
func openEmbeddings(path string, g *kg.Graph, buf []byte) (s embStore, err error) {
	f, err := os.Open(path)
	if err != nil {
		return embStore{}, err
	}
	st, err := f.Stat()
	if err == nil {
		s = embStore{f: f, g: g}
		s.offs, err = core.ScanEmbeddings(f, st.Size(), g, buf)
	}
	if err != nil {
		f.Close()
		return embStore{}, err
	}
	return s, nil
}

// len is how many documents the store covers.
func (s *embStore) len() int {
	if s.f == nil {
		return len(s.embs)
	}
	return len(s.offs) - 1
}

// embedding returns document i's embedding; a file-backed store reads and
// decodes its record.
func (s *embStore) embedding(i int) (*core.DocEmbedding, error) {
	if s.f == nil {
		return s.embs[i], nil
	}
	rec := make([]byte, s.offs[i+1]-s.offs[i])
	if err := readAt(s.f, rec, s.offs[i]); err != nil {
		return nil, fmt.Errorf("newslink: reading embedding at %d: %w", s.offs[i], err)
	}
	emb, err := core.ReadEmbedding(rec, s.g)
	if err != nil {
		return nil, fmt.Errorf("newslink: decoding embedding at %d: %w", s.offs[i], err)
	}
	return emb, nil
}

// writeTo writes the embeddings artifact: encoded from a resident store,
// copied byte for byte from a file-backed one's file.
func (s *embStore) writeTo(w io.Writer) error {
	if s.f == nil {
		return core.WriteEmbeddings(w, s.embs)
	}
	return copyFile(w, s.f, s.offs[len(s.offs)-1])
}

func (s *embStore) close() error { return closeFile(s.f) }

// copyFile writes the first size bytes of f to w; a file that has become
// shorter is an error.
func copyFile(w io.Writer, f *os.File, size int64) error {
	n, err := io.Copy(w, io.NewSectionReader(f, 0, size))
	if err == nil && n < size { // a short file ends the section early, without an error
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("newslink: copying %s: %w", f.Name(), err)
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
