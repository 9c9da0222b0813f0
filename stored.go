package newslink

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"unsafe"

	"newslink/internal/nlp"
)

// A segment's stored fields are its documents. A segment built or merged
// in this process holds them as a []Document; one restored from a
// snapshot views its mapped seg-<id>.docs.bin (docsfile.go): the ID, time
// and offset columns are copied out at load, and a document's title and
// text are read in place when a request asks for them, so only the pages
// of the documents requests touch become resident.
//
// A document's subgraph embedding is not stored: it is a function of the
// document's text and the engine's graph, and Explain, ExplainDOT and
// Related re-derive it from the text (Engine.docEmbedding).
//
// A mapped read that faults (the artifact was truncated under the engine)
// fails the request through mmap.Guard at the engine's entry points: it
// never turns into an empty document (DESIGN.md §9). No string that
// aliases a mapping leaves those entry points: what a request returns or
// an engine keeps — results, documents, merged segments, the text an
// embedding is derived from — is copied out (result, doc).

// docStore is a segment's documents: resident in docs, or mapped.
type docStore struct {
	docs []Document

	data []byte // the mapped artifact; nil when resident
	ids  []int  // the ID column
	offs []byte // the validated offset column (docsfile.go)
	area []byte // the text area, aliasing data
}

// openDocs parses the documents artifact data, a mapping: the header and
// the offset column are validated against its size, and the ID, time and
// offset columns are copied out. It returns the store, which views data
// for the titles and texts, and the time column.
func openDocs(data []byte) (docStore, []int64, error) {
	l, err := parseDocsHeader(data, int64(len(data)))
	if err != nil {
		return docStore{}, nil, err
	}
	offs := data[l.offs:l.area]
	if err := l.checkOffsets(offs); err != nil {
		return docStore{}, nil, err
	}
	le := binary.LittleEndian
	d := docStore{data: data, ids: make([]int, l.n), offs: bytes.Clone(offs), area: data[l.area:]}
	times := make([]int64, l.n)
	for i := range d.ids {
		id := int64(le.Uint64(data[l.ids+8*int64(i):]))
		if int64(int(id)) != id {
			return docStore{}, nil, fmt.Errorf("document %d: ID %d overflows int", i, id)
		}
		d.ids[i], times[i] = int(id), int64(le.Uint64(data[l.ids+8*int64(l.n+i):]))
	}
	return d, times, nil
}

func (d *docStore) mapped() bool { return d.data != nil }

func (d *docStore) id(i int) int {
	if !d.mapped() {
		return d.docs[i].ID
	}
	return d.ids[i]
}

// text returns document i's title and text. A mapped store's alias the
// mapping: callers copy what they keep.
func (d *docStore) text(i int) (title, text string) {
	if !d.mapped() {
		return d.docs[i].Title, d.docs[i].Text
	}
	le := binary.LittleEndian
	t0, t1, t2 := le.Uint64(d.offs[16*i:]), le.Uint64(d.offs[16*i+8:]), le.Uint64(d.offs[16*i+16:])
	if t2 == t0 {
		return "", ""
	}
	both := unsafe.String(&d.area[t0], t2-t0)
	return both[:t1-t0], both[t1-t0:]
}

// writeTo writes the documents artifact: encoded from a resident store,
// the mapped bytes of a mapped one.
func (d *docStore) writeTo(w io.Writer) error {
	if !d.mapped() {
		return writeDocs(w, d.docs)
	}
	_, err := w.Write(d.data)
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

// doc returns the document at local position i; a mapped segment's title
// and text are copied out of the mapping, in one allocation.
func (s *segment) doc(i int) Document {
	if !s.docs.mapped() {
		return s.docs.docs[i]
	}
	title, text := copied(s.docs.text(i))
	return Document{ID: s.docs.ids[i], Title: title, Text: text, Time: s.times[i]}
}

// result materializes the search result at local position i: the
// document's ID and title, and the best sentence of its text for snippets
// (none when snippets is nil). A mapped segment's title and snippet are
// copied out, in one allocation, so what a result keeps does not grow with
// the document.
func (s *segment) result(i int, snippets *nlp.TermSet) Result {
	title, text := s.docs.text(i)
	r := Result{ID: s.docs.id(i), Title: title}
	if snippets != nil {
		r.Snippet = snippets.BestSentence(text)
	}
	if s.docs.mapped() {
		r.Title, r.Snippet = copied(r.Title, r.Snippet)
	}
	return r
}
