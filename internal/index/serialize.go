package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
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
//	               tf: uvarint (v<<1|1) when tf is a small integer,
//	                   uvarint (float32bits<<1) otherwise
//
// Doc-gap + varint compression shrinks postings ~3-4x versus fixed-width
// encoding. The directory carries each block's summary (last doc, max TF,
// byte length), so a reader can compute per-block score upper bounds and
// fetch exactly the blocks a query touches: a file-backed Index (OpenIndex)
// issues one ReadAt per decoded block and never reads a whole list.
//
// v2 stored one flat blob per term, which forced whole-list reads; v3 is not
// backward compatible, and readers reject the old magic.

const indexMagic = "NLIDX3\n"

// WriteTo serializes the index. Build canonicalizes term IDs and document
// folding order, so the output is byte-identical across builds of the same
// corpus. The postings area goes out as it is held: a resident area in one
// write, a file-backed one streamed from its file (a short file is an
// error, never a short copy).
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
	if idx.f == nil {
		if _, err := cw.Write(idx.data); err != nil {
			return cw.n, err
		}
	} else if _, err := io.CopyN(cw, io.NewSectionReader(idx.f, idx.base, idx.areaLen()), idx.areaLen()); err != nil {
		return cw.n, fmt.Errorf("index: streaming postings: %w", err)
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// encodeTF packs a term frequency: small integral frequencies (the common
// case by far) go as (v<<1)|1; anything else carries raw float32 bits.
func encodeTF(tf float32) uint64 {
	if tf >= 0 && tf < 1<<30 && tf == float32(uint32(tf)) {
		return uint64(uint32(tf))<<1 | 1
	}
	return uint64(math.Float32bits(tf)) << 1
}

func decodeTF(v uint64) float32 {
	if v&1 == 1 {
		return float32(v >> 1)
	}
	return math.Float32frombits(uint32(v >> 1))
}

// ReadIndex parses an index written by WriteTo into memory, fully validating
// every block (decode round-trip, monotone doc IDs, summary cross-checks).
func ReadIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	docLen, lists, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	// The area grows as bytes actually arrive, term by term — doubling, but
	// never past the directory's total — so an honest file ends up in an
	// allocation of exactly its size, while a forged directory cannot make
	// the reader allocate much more than the stream really holds.
	idx := newIndex(docLen, lists, nil)
	area := idx.areaLen()
	data := make([]byte, 0, min(area, 1<<20))
	for i := range lists {
		tl := &lists[i]
		start, n := len(data), int(tl.dataLen())
		if start+n > cap(data) {
			data = append(make([]byte, 0, min(area, max(2*int64(cap(data)), int64(start+n)))), data...)
		}
		data = data[:start+n]
		if _, err := io.ReadFull(br, data[start:]); err != nil {
			return nil, fmt.Errorf("index: postings of %q: %w", tl.term, err)
		}
		if err := tl.validate(data[start:], uint32(len(docLen))); err != nil {
			return nil, fmt.Errorf("index: term %q: %w", tl.term, err)
		}
	}
	idx.data = data
	return idx, nil
}

// OpenIndex opens path (a file written by WriteTo) file-backed: only the
// directory and document lengths are read; postings blocks stay in the
// file and are fetched on demand, each validated by decodeBlock as it is
// decoded. Close the index when done.
func OpenIndex(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(f)
	docLen, lists, err := readHeader(br)
	if err != nil {
		f.Close()
		return nil, err
	}
	// The header reader consumed exactly up to the postings area; its file
	// position is the current offset minus what is still buffered.
	pos, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		f.Close()
		return nil, err
	}
	idx := newIndex(docLen, lists, nil)
	idx.f, idx.base = f, pos-int64(br.Buffered())
	return idx, nil
}

// Close releases the file behind a file-backed index; a no-op on a
// resident (or nil) one.
func (idx *Index) Close() error {
	if idx == nil || idx.f == nil {
		return nil
	}
	return idx.f.Close()
}

// BytesRead returns the cumulative number of postings bytes cursors have
// fetched with ReadAt since the index was opened (always 0 on a resident
// index). Tests use it to prove queries read only the blocks they touch.
func (idx *Index) BytesRead() int64 { return idx.bytesRead.Load() }

// readHeader parses everything before the postings area: the document
// lengths and the directory, with each term's offset into the area.
func readHeader(br *bufio.Reader) ([]float32, []termList, error) {
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, nil, fmt.Errorf("index: reading magic: %w", err)
	}
	if string(magic) != indexMagic {
		return nil, nil, fmt.Errorf("index: bad magic %q", magic)
	}
	var nDocs uint32
	if err := binary.Read(br, binary.LittleEndian, &nDocs); err != nil {
		return nil, nil, fmt.Errorf("index: doc count: %w", err)
	}
	if nDocs > 1<<28 {
		return nil, nil, fmt.Errorf("index: implausible doc count %d", nDocs)
	}
	docLens := make([]float32, nDocs)
	if err := binary.Read(br, binary.LittleEndian, docLens); err != nil {
		return nil, nil, fmt.Errorf("index: doc lengths: %w", err)
	}
	for _, l := range docLens {
		if l < 0 || math.IsNaN(float64(l)) {
			return nil, nil, fmt.Errorf("index: invalid doc length %v", l)
		}
	}
	var nTerms uint32
	if err := binary.Read(br, binary.LittleEndian, &nTerms); err != nil {
		return nil, nil, fmt.Errorf("index: term count: %w", err)
	}
	if nTerms > 1<<28 {
		return nil, nil, fmt.Errorf("index: implausible term count %d", nTerms)
	}
	var lists []termList
	offset := int64(0)
	prev := ""
	for i := uint32(0); i < nTerms; i++ {
		tl, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, nil, fmt.Errorf("index: term %d length: %w", i, err)
		}
		if tl > 1<<20 {
			return nil, nil, fmt.Errorf("index: term length %d too large", tl)
		}
		buf := make([]byte, tl)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, nil, err
		}
		term := string(buf)
		if i > 0 && term <= prev {
			return nil, nil, fmt.Errorf("index: directory not sorted at %q", term)
		}
		prev = term
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, nil, err
		}
		if count > uint64(nDocs) {
			return nil, nil, fmt.Errorf("index: term %q has %d postings for %d docs", term, count, nDocs)
		}
		te := termList{term: term, count: int(count), offset: offset}
		te.blocks = make([]blockMeta, numBlocksFor(int(count)))
		prevLast := DocID(0)
		dataOff := uint32(0)
		for bi := range te.blocks {
			lastDelta, err := binary.ReadUvarint(br)
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
			maxRaw, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, nil, fmt.Errorf("index: term %q block %d max tf: %w", term, bi, err)
			}
			maxTF := decodeTF(maxRaw)
			if maxTF < 0 || math.IsNaN(float64(maxTF)) {
				return nil, nil, fmt.Errorf("index: term %q invalid block max tf %v", term, maxTF)
			}
			blen, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, nil, fmt.Errorf("index: term %q block %d length: %w", term, bi, err)
			}
			if blen == 0 || blen > maxBlockBytes {
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
