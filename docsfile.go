package newslink

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The documents artifact seg-<id>.docs.bin (since snapshot version 6), little
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
// Fixed-width columns put every column at a computable offset, so the one
// reader, openDocs, takes the ID, time and offset columns out of the
// artifact's prefix without touching the text, which stays in the file
// and is read per document. n and
// off[2n] account for every byte of the file, so nothing is optional and
// decode∘encode is the identity. Titles and texts are stored as bytes, not
// re-encoded, so invalid UTF-8 and NUL survive a snapshot the way they
// survive the WAL.
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
	n               int
	ids, offs, area int64 // where the ID, offset and text columns start; times follow the IDs
	areaLen         int64
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
	l.offs = l.ids + 16*int64(n)
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
