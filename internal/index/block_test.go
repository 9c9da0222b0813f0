package index

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// randPostings builds a random strictly-increasing postings list with small
// and large TFs over a numDocs document space.
func randPostings(rng *rand.Rand, n int, numDocs uint32) []Posting {
	if uint32(n) > numDocs {
		n = int(numDocs)
	}
	docs := rng.Perm(int(numDocs))[:n]
	pl := make([]Posting, 0, n)
	for _, d := range docs {
		tf := float32(1 + rng.Intn(5))
		if rng.Intn(3) == 0 {
			tf = float32(rng.Intn(1 << 20))
		}
		pl = append(pl, Posting{Doc: DocID(d), TF: tf})
	}
	sortPostings(pl)
	return pl
}

func sortPostings(pl []Posting) {
	for i := 1; i < len(pl); i++ {
		for j := i; j > 0 && pl[j].Doc < pl[j-1].Doc; j-- {
			pl[j], pl[j-1] = pl[j-1], pl[j]
		}
	}
}

// oneTermIndex wraps one encoded list as a resident index over a docLen-sized
// document space, so the codec tests decode through the real cursor.
func oneTermIndex(tl termList, data []byte, docLen []float32) *Index {
	return newIndex(docLen, []termList{tl}, data)
}

// TestBlockCodecRoundTrip: appendBlocks → Postings must be the identity
// for list sizes around every block boundary.
func TestBlockCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 2, blockSize - 1, blockSize, blockSize + 1, 3 * blockSize, 10*blockSize + 17}
	docLen := make([]float32, 1<<16)
	for _, n := range sizes {
		pl := randPostings(rng, n, 1<<16)
		tl, data := appendBlocks(nil, "t", pl)
		if tl.count != len(pl) {
			t.Fatalf("n=%d: count %d", n, tl.count)
		}
		if len(tl.blocks) != numBlocksFor(len(pl)) {
			t.Fatalf("n=%d: %d blocks", n, len(tl.blocks))
		}
		if err := tl.validate(data, 1<<16); err != nil {
			t.Fatalf("n=%d: validate: %v", n, err)
		}
		got, err := Postings(oneTermIndex(tl, data, docLen), "t")
		if err != nil {
			t.Fatalf("n=%d: Postings: %v", n, err)
		}
		if len(got) == 0 && len(pl) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, pl) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

// TestDecodeBlockRejectsCorrupt: truncated or tampered block bytes must fail
// with an error, never a panic or silent bad data.
func TestDecodeBlockRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pl := randPostings(rng, blockSize, 1<<12)
	tl, data := appendBlocks(nil, "t", pl)
	data = data[tl.blocks[0].off:tl.blocks[0].end]
	decode := func(d []byte) error {
		_, err := decodeBlock(d, nil, blockSize, 0, true, 1<<12, tl.blocks[0].last)
		return err
	}
	if err := decode(data); err != nil {
		t.Fatalf("pristine block failed: %v", err)
	}
	for cut := 1; cut <= len(data); cut += 7 {
		if err := decode(data[:len(data)-cut]); err == nil {
			t.Fatalf("truncation by %d accepted", cut)
		}
	}
	for i := 0; i < len(data); i += 3 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x80
		// Any outcome but a panic is fine; most mutations must error, and
		// those that decode cannot have produced out-of-range docs.
		if pl2, err := decodeBlock(mut, nil, blockSize, 0, true, 1<<12, tl.blocks[0].last); err == nil {
			for _, p := range pl2 {
				if uint32(p.Doc) >= 1<<12 {
					t.Fatalf("mutation at %d decoded doc %d out of range", i, p.Doc)
				}
			}
		}
	}
	if _, err := decodeBlock(data, nil, blockSize+1, 0, true, 1<<12, 0); err == nil {
		t.Fatal("oversized posting count accepted")
	}
}

// FuzzBlockCodec: the block codec must round-trip arbitrary postings lists
// and reject corrupt block bytes without panicking.
func FuzzBlockCodec(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(3))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint16(300))
	const numDocs = 1 << 16
	docLen := make([]float32, numDocs)
	f.Fuzz(func(t *testing.T, data []byte, n16 uint16) {
		// First interpretation: data drives a synthetic postings list that
		// must round-trip exactly.
		n := int(n16)
		pl := make([]Posting, 0, n)
		doc := uint32(0)
		for i := 0; i < n && len(data) >= 2; i++ {
			gap := uint32(data[i*2%len(data)])%97 + 1
			if i == 0 {
				gap-- // the first doc may be 0
			}
			doc += gap
			if doc >= numDocs {
				break
			}
			tf := float32(data[(i*2+1)%len(data)]) * 1000
			if tf == 0 {
				tf = 1
			}
			pl = append(pl, Posting{Doc: DocID(doc), TF: tf})
		}
		tl, area := appendBlocks(nil, "t", pl)
		got, err := Postings(oneTermIndex(tl, area, docLen), "t")
		if err != nil {
			t.Fatalf("Postings of appendBlocks output: %v", err)
		}
		if len(got) != len(pl) {
			t.Fatalf("round trip length %d want %d", len(got), len(pl))
		}
		for i := range pl {
			if got[i] != pl[i] {
				t.Fatalf("posting %d: %v want %v", i, got[i], pl[i])
			}
		}
		if err := tl.validate(area, numDocs); err != nil {
			t.Fatalf("validate of appendBlocks output: %v", err)
		}
		// Second interpretation: data as raw block bytes — must never
		// panic, and successful decodes must respect the doc-ID range.
		count := n % (blockSize + 2)
		if out, err := decodeBlock(data, nil, count, 0, true, numDocs, DocID(n16)); err == nil {
			for _, p := range out {
				if uint32(p.Doc) >= numDocs {
					t.Fatalf("decoded out-of-range doc %d", p.Doc)
				}
			}
		}
	})
}

// TestMaxBlockBytesBound pins the parser's block-size rejection guard to the
// real encoder maximum (two max-width varints per posting).
func TestMaxBlockBytesBound(t *testing.T) {
	if maxBlockBytes != 2*binary.MaxVarintLen64*blockSize {
		t.Fatalf("maxBlockBytes = %d", maxBlockBytes)
	}
	// A worst-case block (huge gaps, huge TFs) must still fit the bound.
	pl := make([]Posting, blockSize)
	for i := range pl {
		pl[i] = Posting{Doc: DocID(i * 2000000), TF: 1 << 31}
	}
	_, data := appendBlocks(nil, "t", pl)
	if got := len(data); got > maxBlockBytes {
		t.Fatalf("encoded block %d bytes > bound %d", got, maxBlockBytes)
	}
}
