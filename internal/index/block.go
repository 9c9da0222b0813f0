package index

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Block-compressed postings layout.
//
// A term's postings list is finalized by Build into fixed-size blocks of up
// to blockSize postings. Within a block, doc IDs are delta-varint encoded
// (the first posting of block 0 carries the absolute doc ID; every other
// delta is >= 1) and term frequencies use the compact encodeTF varint. Each
// block carries a summary — its last doc ID and its maximum TF — kept
// outside the encoded bytes, so the query processor can compute a per-block
// BM25 upper bound and skip whole blocks without decoding them
// (Block-Max pruning).
const blockSize = 128

// maxBlockBytes bounds one encoded block: each posting is at most two
// 10-byte varints. Parsers reject claimed block lengths above this.
const maxBlockBytes = 2 * binary.MaxVarintLen64 * blockSize

// blockMeta is the resident summary of one postings block.
type blockMeta struct {
	last  DocID   // last (largest) doc ID in the block
	maxTF float32 // maximum term frequency in the block
	off   uint32  // byte offset of the block's data within the term's bytes
	end   uint32  // byte offset one past the block's data
}

// termList is one directory row: a term, its block summaries, and where
// the term's encoded blocks start within the index's postings area.
type termList struct {
	term   string
	count  int     // total postings (the term's DF)
	maxTF  float32 // maximum TF across all blocks
	blocks []blockMeta
	offset int64 // start of this term's bytes within the postings area
}

// dataLen returns the total encoded size of the term's blocks.
func (tl *termList) dataLen() int64 {
	if len(tl.blocks) == 0 {
		return 0
	}
	return int64(tl.blocks[len(tl.blocks)-1].end)
}

// numBlocksFor returns how many blocks a list of count postings occupies.
func numBlocksFor(count int) int { return (count + blockSize - 1) / blockSize }

// blockLen returns the number of postings in block bi of a count-sized list.
func (tl *termList) blockLen(bi int) int {
	if bi < len(tl.blocks)-1 {
		return blockSize
	}
	return tl.count - bi*blockSize
}

// appendBlocks compresses a doc-sorted postings list into the block layout,
// appending the encoded bytes to the postings area data. Called in sorted
// term order, it lays the area out exactly as the file format does.
func appendBlocks(data []byte, term string, pl []Posting) (termList, []byte) {
	tl := termList{term: term, count: len(pl), offset: int64(len(data))}
	if len(pl) == 0 {
		return tl, data
	}
	var buf [binary.MaxVarintLen64]byte
	tl.blocks = make([]blockMeta, 0, numBlocksFor(len(pl)))
	prev := DocID(0)
	for start := 0; start < len(pl); start += blockSize {
		end := min(start+blockSize, len(pl))
		bm := blockMeta{off: uint32(int64(len(data)) - tl.offset)}
		for i := start; i < end; i++ {
			p := pl[i]
			delta := uint32(p.Doc)
			if i > 0 {
				delta = uint32(p.Doc) - uint32(prev)
			}
			prev = p.Doc
			n := binary.PutUvarint(buf[:], uint64(delta))
			data = append(data, buf[:n]...)
			n = binary.PutUvarint(buf[:], encodeTF(p.TF))
			data = append(data, buf[:n]...)
			if p.TF > bm.maxTF {
				bm.maxTF = p.TF
			}
		}
		bm.last = prev
		bm.end = uint32(int64(len(data)) - tl.offset)
		tl.blocks = append(tl.blocks, bm)
		if bm.maxTF > tl.maxTF {
			tl.maxTF = bm.maxTF
		}
	}
	return tl, data
}

// decodeBlock reverses appendBlocks for one block. base is the last doc ID
// of the preceding block (first of the whole list when firstBlock, where the
// leading delta is the absolute doc ID and may be 0). n postings are
// expected; dst is reused when it has capacity. The decoder validates
// monotonicity, the doc-ID range, exact byte consumption and the block
// summary's last doc, so truncated or corrupt blocks fail cleanly.
func decodeBlock(data []byte, dst []Posting, n int, base DocID, firstBlock bool, numDocs uint32, wantLast DocID) ([]Posting, error) {
	if n < 0 || n > blockSize {
		return nil, fmt.Errorf("index: block posting count %d out of range", n)
	}
	if cap(dst) < n {
		dst = make([]Posting, 0, blockSize)
	}
	dst = dst[:0]
	pos := 0
	prev := uint32(base)
	for i := 0; i < n; i++ {
		delta, w := binary.Uvarint(data[pos:])
		if w <= 0 {
			return nil, fmt.Errorf("index: truncated posting %d", i)
		}
		pos += w
		if delta > uint64(numDocs) {
			return nil, fmt.Errorf("index: doc delta %d out of range", delta)
		}
		doc := prev + uint32(delta)
		if !(firstBlock && i == 0) && delta == 0 {
			return nil, fmt.Errorf("index: postings not strictly increasing")
		}
		if doc >= numDocs {
			return nil, fmt.Errorf("index: posting doc %d out of range", doc)
		}
		prev = doc
		tfRaw, w := binary.Uvarint(data[pos:])
		if w <= 0 {
			return nil, fmt.Errorf("index: truncated tf %d", i)
		}
		pos += w
		tf, ok := decodeTF(tfRaw)
		if !ok {
			return nil, fmt.Errorf("index: tf %d of posting %d is untagged", tfRaw, i)
		}
		dst = append(dst, Posting{Doc: DocID(doc), TF: tf})
	}
	if pos != len(data) {
		return nil, fmt.Errorf("index: %d trailing bytes in block", len(data)-pos)
	}
	if n > 0 && DocID(prev) != wantLast {
		return nil, fmt.Errorf("index: block last doc %d, summary says %d", prev, wantLast)
	}
	return dst, nil
}

// validate fully decodes a termList from its bytes (data holds exactly the
// term's blocks) and cross-checks the block summaries (per-block max TF
// included); used when parsing untrusted serialized input.
func (tl *termList) validate(data []byte, numDocs uint32) error {
	if len(tl.blocks) != numBlocksFor(tl.count) {
		return fmt.Errorf("index: %d blocks for %d postings", len(tl.blocks), tl.count)
	}
	var buf [blockSize]Posting
	base := DocID(0)
	for bi, bm := range tl.blocks {
		pl, err := decodeBlock(data[bm.off:bm.end], buf[:0], tl.blockLen(bi), base, bi == 0, numDocs, bm.last)
		if err != nil {
			return err
		}
		maxTF := float32(0)
		for _, p := range pl {
			if p.TF > maxTF {
				maxTF = p.TF
			}
		}
		if maxTF != bm.maxTF {
			return fmt.Errorf("index: block max tf %v, summary says %v", maxTF, bm.maxTF)
		}
		base = bm.last
	}
	return nil
}

// cursor iterates one term of an Index block by block, decoding each
// block it is asked for straight from the postings area.
type cursor struct {
	idx *Index
	tl  *termList
	bi  int // current block; -1 before the first NextBlock
	buf []Posting
}

func (c *cursor) Count() int          { return c.tl.count }
func (c *cursor) MaxTF() float32      { return c.tl.maxTF }
func (c *cursor) BlockLen() int       { return c.tl.blockLen(c.bi) }
func (c *cursor) BlockLast() DocID    { return c.tl.blocks[c.bi].last }
func (c *cursor) BlockMaxTF() float32 { return c.tl.blocks[c.bi].maxTF }

func (c *cursor) NextBlock() bool {
	if c.bi+1 >= len(c.tl.blocks) {
		return false
	}
	c.bi++
	return true
}

func (c *cursor) SeekBlock(d DocID) bool {
	if c.bi >= 0 && c.bi < len(c.tl.blocks) && c.tl.blocks[c.bi].last >= d {
		return true // already positioned at or past d's block
	}
	from := max(c.bi+1, 0)
	blocks := c.tl.blocks
	c.bi = from + sort.Search(len(blocks)-from, func(j int) bool { return blocks[from+j].last >= d })
	return c.bi < len(blocks)
}

func (c *cursor) Block() ([]Posting, error) {
	pl, err := c.decode(c.buf)
	c.buf = pl
	return pl, err
}

// decode decodes the current block into dst, reused when it has room for
// the block.
func (c *cursor) decode(dst []Posting) ([]Posting, error) {
	bm := c.tl.blocks[c.bi]
	lo := c.tl.offset + int64(bm.off)
	raw := c.idx.data[lo : lo+int64(bm.end-bm.off)]
	base := DocID(0)
	if c.bi > 0 {
		base = c.tl.blocks[c.bi-1].last
	}
	return decodeBlock(raw, dst, c.tl.blockLen(c.bi), base, c.bi == 0, uint32(len(c.idx.docLen)), bm.last)
}
