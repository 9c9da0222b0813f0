package newslink

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// The documents artifact seg-<id>.docs.bin (snapshot version 6), little
// endian:
//
//	magic "NLDOCS1\n"
//	uint64 n                 documents in the segment
//	int64  ID[n]             Document.ID column
//	int64  Time[n]           Document.Time column
//	uint64 off[2n+1]         offsets into the byte area: document i's title
//	                         is area[off[2i]:off[2i+1]] and its text
//	                         area[off[2i+1]:off[2i+2]]; off[0] = 0, never
//	                         decreasing, off[2n] = the area's length
//	byte   area[off[2n]]     titles and texts, byte-exact
//
// Fixed-width columns put any one column at a computable offset, so a
// reader can take the times (what a shard worker filters by) without
// touching the rest. n and off[2n] account for every byte of the file, so
// nothing is optional and decode∘encode is the identity. Titles and texts
// are stored as bytes, not re-encoded, so invalid UTF-8 and NUL survive a
// snapshot the way they survive the WAL.
const docsMagic = "NLDOCS1\n"

const (
	docsHeaderSize = len(docsMagic) + 8
	docsColumnSize = 8 + 8 + 8 + 8 // ID, Time and two offsets per document
)

// writeDocs writes the documents artifact of docs with a single Write.
func writeDocs(w io.Writer, docs []Document) error {
	size := docsHeaderSize + docsColumnSize*len(docs) + 8
	for _, d := range docs {
		size += len(d.Title) + len(d.Text)
	}
	_, err := w.Write(appendDocs(make([]byte, 0, size), docs))
	return err
}

func appendDocs(b []byte, docs []Document) []byte {
	le := binary.LittleEndian
	b = append(b, docsMagic...)
	b = le.AppendUint64(b, uint64(len(docs)))
	for _, d := range docs {
		b = le.AppendUint64(b, uint64(int64(d.ID)))
	}
	for _, d := range docs {
		b = le.AppendUint64(b, uint64(d.Time))
	}
	off := uint64(0)
	for _, d := range docs {
		b = le.AppendUint64(b, off)
		off += uint64(len(d.Title))
		b = le.AppendUint64(b, off)
		off += uint64(len(d.Text))
	}
	b = le.AppendUint64(b, off)
	for _, d := range docs {
		b = append(b, d.Title...)
		b = append(b, d.Text...)
	}
	return b
}

// docsLayout is where a documents artifact of a given size keeps its
// columns, from its header. Counts are checked against the size before
// anything is read or allocated.
type docsLayout struct {
	n                      int
	ids, times, offs, area int64 // where each column starts in the file
	areaLen                int64
}

func parseDocsHeader(head []byte, size int64) (docsLayout, error) {
	if len(head) < docsHeaderSize || string(head[:len(docsMagic)]) != docsMagic {
		return docsLayout{}, fmt.Errorf("not a documents artifact (bad magic)")
	}
	n := binary.LittleEndian.Uint64(head[len(docsMagic):])
	// Every document needs its column bytes, and the closing offset follows.
	if room := size - int64(docsHeaderSize) - 8; room < 0 || n > uint64(room)/docsColumnSize {
		return docsLayout{}, fmt.Errorf("document count %d exceeds the %d bytes of the artifact", n, size)
	}
	l := docsLayout{n: int(n), ids: int64(docsHeaderSize)}
	l.times = l.ids + 8*int64(n)
	l.offs = l.times + 8*int64(n)
	l.area = l.offs + 8*(2*int64(n)+1)
	l.areaLen = size - l.area
	return l, nil
}

// checkOffsets validates the offset column against the byte area.
func (l docsLayout) checkOffsets(col []byte) error {
	prev := uint64(0)
	for i := 0; i < len(col); i += 8 {
		off := binary.LittleEndian.Uint64(col[i:])
		switch {
		case off > uint64(l.areaLen):
			return fmt.Errorf("offset %d is %d, past the %d-byte text area", i/8, off, l.areaLen)
		case i == 0 && off != 0:
			return fmt.Errorf("offset column starts at %d, not 0", off)
		case off < prev:
			return fmt.Errorf("offset %d is %d, below the %d before it", i/8, off, prev)
		}
		prev = off
	}
	if prev != uint64(l.areaLen) {
		return fmt.Errorf("offsets end at %d, the text area holds %d bytes", prev, l.areaLen)
	}
	return nil
}

// readAt fills b from r at off; reaching the end of r exactly is not an
// error, stopping short of it is.
func readAt(r io.ReaderAt, b []byte, off int64) error {
	if len(b) == 0 {
		return nil
	}
	n, err := r.ReadAt(b, off)
	if n == len(b) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// readDocsHead reads the documents artifact in r (size bytes) as far as its
// layout: it validates the header and the offset column against the size,
// and returns the layout and the offset column.
func readDocsHead(r io.ReaderAt, size int64) (docsLayout, []byte, error) {
	head := make([]byte, docsHeaderSize)
	if err := readAt(r, head, 0); err != nil {
		return docsLayout{}, nil, fmt.Errorf("reading header: %w", err)
	}
	l, err := parseDocsHeader(head, size)
	if err != nil {
		return docsLayout{}, nil, err
	}
	offs := make([]byte, l.area-l.offs)
	if err := readAt(r, offs, l.offs); err != nil {
		return docsLayout{}, nil, fmt.Errorf("reading offsets: %w", err)
	}
	if err := l.checkOffsets(offs); err != nil {
		return docsLayout{}, nil, err
	}
	return l, offs, nil
}

// readTimes reads the time column of the documents artifact in r (size
// bytes), validating its header and offset column as readDocs does; it
// never reads the IDs or the text.
func readTimes(r io.ReaderAt, size int64) ([]int64, error) {
	l, _, err := readDocsHead(r, size)
	if err != nil {
		return nil, err
	}
	col := make([]byte, l.offs-l.times)
	if err := readAt(r, col, l.times); err != nil {
		return nil, fmt.Errorf("reading times: %w", err)
	}
	times := make([]int64, l.n)
	for i := range times {
		times[i] = int64(binary.LittleEndian.Uint64(col[8*i:]))
	}
	return times, nil
}

// readDocs decodes the documents artifact in r (size bytes), streaming the
// text through buf. The titles and texts are read straight into one string
// they all slice — one allocation per segment, not two per document, and
// no copy of the file in between — so a segment's text stays resident
// while any of its documents does (at most the text the snapshot loaded).
func readDocs(r io.ReaderAt, size int64, buf []byte) ([]Document, error) {
	l, offs, err := readDocsHead(r, size)
	if err != nil {
		return nil, err
	}
	ids := make([]byte, l.times-l.ids)
	if err := readAt(r, ids, l.ids); err != nil {
		return nil, fmt.Errorf("reading IDs: %w", err)
	}
	times := make([]byte, l.offs-l.times)
	if err := readAt(r, times, l.times); err != nil {
		return nil, fmt.Errorf("reading times: %w", err)
	}
	var sb strings.Builder
	sb.Grow(int(l.areaLen))
	if _, err := io.CopyBuffer(&sb, io.NewSectionReader(r, l.area, l.areaLen), buf); err != nil {
		return nil, fmt.Errorf("reading text: %w", err)
	}
	if int64(sb.Len()) != l.areaLen {
		return nil, fmt.Errorf("reading text: %w", io.ErrUnexpectedEOF)
	}
	area := sb.String()
	le := binary.LittleEndian
	docs := make([]Document, l.n)
	for i := range docs {
		id := int64(le.Uint64(ids[8*i:]))
		if int64(int(id)) != id {
			return nil, fmt.Errorf("document %d: ID %d overflows int", i, id)
		}
		t0, t1, t2 := le.Uint64(offs[16*i:]), le.Uint64(offs[16*i+8:]), le.Uint64(offs[16*i+16:])
		docs[i] = Document{ID: int(id), Title: area[t0:t1], Text: area[t1:t2], Time: int64(le.Uint64(times[8*i:]))}
	}
	return docs, nil
}

// readDocsFile decodes the documents artifact at path, streaming through
// buf.
func readDocsFile(path string, buf []byte) (docs []Document, err error) {
	err = withFile(path, func(f *os.File, size int64) (err error) {
		docs, err = readDocs(f, size, buf)
		return err
	})
	return docs, err
}

// readTimesFile reads the time column of the documents artifact at path.
func readTimesFile(path string) (times []int64, err error) {
	err = withFile(path, func(f *os.File, size int64) (err error) {
		times, err = readTimes(f, size)
		return err
	})
	return times, err
}

// withFile runs fn over the file at path and its size, and closes it.
func withFile(path string, fn func(f *os.File, size int64) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	return fn(f, st.Size())
}
