package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary index format v3 (little endian):
//
//	magic   "NLIDX3\n"
//	uint32  numDocs
//	float32 docLen per doc
//	uint32  numTerms
//	directory, one entry per term (sorted lexicographically):
//	  uvarint len(term), term bytes
//	  uvarint postings count
//	  per block (ceil(count/128) blocks; counts are implied — every block
//	  holds 128 postings except the last):
//	    uvarint last-doc delta (first block: absolute last doc ID; later
//	            blocks: increase over the previous block's last)
//	    uvarint encodeTF(max TF within the block)
//	    uvarint block data length in bytes
//	block data, concatenated in directory order:
//	  per posting: uvarint docID delta (list-first = docID; gaps thereafter),
//	               uvarint encodeTF(tf)
//
// Doc-gap + varint compression shrinks postings ~3-4x versus fixed-width
// encoding. The directory carries each block's summary (last doc, max TF,
// byte length), so a reader can compute per-block score upper bounds and
// decode exactly the blocks a query touches. ReadIndex still decodes every
// block once, to validate it, so a parsed index is wholly resident.
//
// v2 stored one flat blob per term, which forced whole-list reads; v3 is not
// backward compatible, and readers reject the old magic.

const indexMagic = "NLIDX3\n"

// WriteTo serializes the index. Build canonicalizes term IDs and document
// folding order, so the output is byte-identical across builds of the same
// corpus; the postings area goes out in one write, as it is held.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	le := func(data any) error { return binary.Write(cw, binary.LittleEndian, data) }
	if _, err := io.WriteString(cw, indexMagic); err != nil {
		return cw.n, err
	}
	if err := le(uint32(len(idx.docLen))); err != nil {
		return cw.n, err
	}
	if err := le(idx.docLen); err != nil {
		return cw.n, err
	}
	if err := le(uint32(len(idx.lists))); err != nil {
		return cw.n, err
	}
	var varintBuf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(varintBuf[:], v)
		_, err := cw.Write(varintBuf[:n])
		return err
	}
	for i := range idx.lists {
		tl := &idx.lists[i]
		if err := writeUvarint(uint64(len(tl.term))); err != nil {
			return cw.n, err
		}
		if _, err := io.WriteString(cw, tl.term); err != nil {
			return cw.n, err
		}
		if err := writeUvarint(uint64(tl.count)); err != nil {
			return cw.n, err
		}
		prevLast := DocID(0)
		for bi, bm := range tl.blocks {
			delta := uint64(bm.last)
			if bi > 0 {
				delta = uint64(bm.last - prevLast)
			}
			prevLast = bm.last
			if err := writeUvarint(delta); err != nil {
				return cw.n, err
			}
			if err := writeUvarint(encodeTF(bm.maxTF)); err != nil {
				return cw.n, err
			}
			if err := writeUvarint(uint64(bm.end - bm.off)); err != nil {
				return cw.n, err
			}
		}
	}
	if _, err := cw.Write(idx.data); err != nil {
		return cw.n, err
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// encodeTF packs a term frequency, a count, as (v<<1)|1. The tag bit is a
// relic of a float encoding no writer produces any more; it keeps the
// bytes of every existing index valid, and decodeTF rejects a value
// without it.
func encodeTF(tf float32) uint64 { return uint64(uint32(tf))<<1 | 1 }

// decodeTF reverses encodeTF; ok is false for an untagged value, which is
// corruption.
func decodeTF(v uint64) (tf float32, ok bool) { return float32(v >> 1), v&1 == 1 }

// ReadIndex parses an index written by WriteTo from data, which must hold
// exactly that output. The document lengths and the directory are copied
// out of data; the postings area is not: the index aliases data, a heap
// buffer (a snapshot load reads the artifact into one), which must stay
// unchanged for the index's lifetime. Everything is validated before the index is
// returned: the directory's account of the area against len(data), and
// every block (decode round-trip, monotone doc IDs, summary cross-checks).
func ReadIndex(data []byte) (*Index, error) {
	r := &byteReader{b: data}
	docLen, lists, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	area := data[r.pos:]
	idx := newIndex(docLen, lists, area)
	if n := idx.areaLen(); n != int64(len(area)) {
		return nil, fmt.Errorf("index: the directory accounts for %d postings bytes, %d follow it", n, len(area))
	}
	for i := range lists {
		tl := &lists[i]
		if err := tl.validate(area[tl.offset:tl.offset+tl.dataLen()], uint32(len(docLen))); err != nil {
			return nil, fmt.Errorf("index: term %q: %w", tl.term, err)
		}
	}
	return idx, nil
}

// byteReader walks a serialized index; a read past the end of b is
// io.ErrUnexpectedEOF.
type byteReader struct {
	b   []byte
	pos int
}

func (r *byteReader) take(n uint64) ([]byte, error) {
	if n > uint64(len(r.b)-r.pos) {
		return nil, io.ErrUnexpectedEOF
	}
	b := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

func (r *byteReader) uint32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if n < 0 {
		return 0, fmt.Errorf("varint overflows 64 bits")
	}
	r.pos += n
	return v, nil
}

// readHeader parses everything before the postings area: the document
// lengths and the directory, with each term's offset into the area.
// Counts are checked against the bytes left before anything is allocated
// for them.
func readHeader(r *byteReader) ([]float32, []termList, error) {
	magic, err := r.take(uint64(len(indexMagic)))
	if err != nil {
		return nil, nil, fmt.Errorf("index: reading magic: %w", err)
	}
	if string(magic) != indexMagic {
		return nil, nil, fmt.Errorf("index: bad magic %q", magic)
	}
	nDocs, err := r.uint32()
	if err != nil {
		return nil, nil, fmt.Errorf("index: doc count: %w", err)
	}
	if nDocs > 1<<28 {
		return nil, nil, fmt.Errorf("index: implausible doc count %d", nDocs)
	}
	raw, err := r.take(4 * uint64(nDocs))
	if err != nil {
		return nil, nil, fmt.Errorf("index: doc lengths: %w", err)
	}
	docLens := make([]float32, nDocs)
	for i := range docLens {
		l := math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		if l < 0 || math.IsNaN(float64(l)) {
			return nil, nil, fmt.Errorf("index: invalid doc length %v", l)
		}
		docLens[i] = l
	}
	nTerms, err := r.uint32()
	if err != nil {
		return nil, nil, fmt.Errorf("index: term count: %w", err)
	}
	if nTerms > 1<<28 {
		return nil, nil, fmt.Errorf("index: implausible term count %d", nTerms)
	}
	// A directory row takes at least two bytes.
	lists := make([]termList, 0, min(int(nTerms), (len(r.b)-r.pos)/2))
	offset := int64(0)
	prev := ""
	for i := uint32(0); i < nTerms; i++ {
		tl, err := r.uvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("index: term %d length: %w", i, err)
		}
		if tl > 1<<20 {
			return nil, nil, fmt.Errorf("index: term length %d too large", tl)
		}
		buf, err := r.take(tl)
		if err != nil {
			return nil, nil, fmt.Errorf("index: term %d: %w", i, err)
		}
		term := string(buf)
		if i > 0 && term <= prev {
			return nil, nil, fmt.Errorf("index: directory not sorted at %q", term)
		}
		prev = term
		count, err := r.uvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("index: term %q count: %w", term, err)
		}
		if count > uint64(nDocs) {
			return nil, nil, fmt.Errorf("index: term %q has %d postings for %d docs", term, count, nDocs)
		}
		// A block summary takes at least three bytes.
		nBlocks := numBlocksFor(int(count))
		if 3*nBlocks > len(r.b)-r.pos {
			return nil, nil, fmt.Errorf("index: term %q: %d block summaries: %w", term, nBlocks, io.ErrUnexpectedEOF)
		}
		te := termList{term: term, count: int(count), offset: offset}
		te.blocks = make([]blockMeta, nBlocks)
		prevLast := DocID(0)
		dataOff := uint32(0)
		for bi := range te.blocks {
			lastDelta, err := r.uvarint()
			if err != nil {
				return nil, nil, fmt.Errorf("index: term %q block %d last: %w", term, bi, err)
			}
			if bi > 0 && lastDelta == 0 {
				return nil, nil, fmt.Errorf("index: term %q block last docs not increasing", term)
			}
			last := uint64(prevLast) + lastDelta
			if last >= uint64(nDocs) {
				return nil, nil, fmt.Errorf("index: term %q block last doc %d out of range", term, last)
			}
			maxRaw, err := r.uvarint()
			if err != nil {
				return nil, nil, fmt.Errorf("index: term %q block %d max tf: %w", term, bi, err)
			}
			maxTF, ok := decodeTF(maxRaw)
			if !ok {
				return nil, nil, fmt.Errorf("index: term %q block %d max tf %d is untagged", term, bi, maxRaw)
			}
			blen, err := r.uvarint()
			if err != nil {
				return nil, nil, fmt.Errorf("index: term %q block %d length: %w", term, bi, err)
			}
			if blen == 0 || blen > maxBlockBytes || uint64(dataOff)+blen > uint64(len(r.b)) {
				return nil, nil, fmt.Errorf("index: term %q block length %d out of range", term, blen)
			}
			te.blocks[bi] = blockMeta{
				last:  DocID(last),
				maxTF: maxTF,
				off:   dataOff,
				end:   dataOff + uint32(blen),
			}
			prevLast = DocID(last)
			dataOff += uint32(blen)
			if maxTF > te.maxTF {
				te.maxTF = maxTF
			}
		}
		lists = append(lists, te)
		offset += int64(dataOff)
	}
	return docLens, lists, nil
}

// countingWriter tracks bytes written for the io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
