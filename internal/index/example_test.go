package index_test

import (
	"bytes"
	"fmt"
	"strings"

	"newslink/internal/index"
)

// Example shows the index lifecycle: build in memory, serialize, parse the
// bytes back (a snapshot load parses an artifact it read the same way), and
// extend with a segment — all behind the same Source interface the query
// processor consumes.
func Example() {
	b := index.NewBuilder()
	b.Add(strings.Fields("attack lahore taliban")) // terms in sorted order
	b.Add(strings.Fields("cricket final lahore"))
	idx := b.Build()

	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		fmt.Println(err)
		return
	}
	disk, err := index.ReadIndex(buf.Bytes())
	if err != nil {
		fmt.Println(err)
		return
	}

	late := index.NewBuilder()
	late.Add(strings.Fields("election lahore results"))
	combined := index.NewMulti(disk, late.Build())

	fmt.Println("docs:", combined.NumDocs())
	fmt.Println("df(lahore):", combined.DF("lahore"))
	pl, err := index.Postings(combined, "lahore")
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, p := range pl {
		fmt.Printf("doc %d tf %g\n", p.Doc, p.TF)
	}
	// Output:
	// docs: 3
	// df(lahore): 3
	// doc 0 tf 1
	// doc 1 tf 1
	// doc 2 tf 1
}

// ExampleCursor walks a term's postings over two segments block by block,
// from the summaries alone, and seeks to the block of a document, as
// block-max pruning does before it decodes anything.
func ExampleCursor() {
	b := index.NewBuilder()
	for range 200 {
		b.Add([]string{"lahore"})
	}
	seg := b.Build()
	m := index.NewMulti(seg, seg)
	c := m.TermCursor("lahore")
	fmt.Println("postings:", c.Count(), "max tf:", c.MaxTF())
	for c.NextBlock() {
		fmt.Println("block of", c.BlockLen(), "to doc", c.BlockLast(), "max tf", c.BlockMaxTF())
	}
	index.ReleaseCursor(c)
	c = m.TermCursor("lahore")
	defer index.ReleaseCursor(c)
	if c.SeekBlock(300) {
		pl, err := c.Block()
		fmt.Println("doc 300 is in docs", pl[0].Doc, "to", pl[len(pl)-1].Doc, err)
	}
	// Output:
	// postings: 400 max tf: 1
	// block of 128 to doc 127 max tf 1
	// block of 72 to doc 199 max tf 1
	// block of 128 to doc 327 max tf 1
	// block of 72 to doc 399 max tf 1
	// doc 300 is in docs 200 to 327 <nil>
}

// evenDocs is a filter keeping the documents of even ID.
type evenDocs struct{}

func (evenDocs) Keep(d index.DocID) bool { return d%2 == 0 }

// ExampleMasked hides a deleted document and those a filter drops from
// retrieval (search reads Live), while the statistics still count them;
// MergeSegments then drops the deleted one for good.
func ExampleMasked() {
	b := index.NewBuilder()
	for _, doc := range []string{"lahore", "lahore taliban", "cricket lahore", "lahore"} {
		b.Add(strings.Fields(doc))
	}
	idx := b.Build()
	dead := index.NewBitmap(idx.NumDocs())
	dead.Set(2)
	src := index.Masked(idx, dead, evenDocs{})
	fmt.Println("docs:", src.NumDocs(), "df(cricket):", src.DF("cricket"))
	for d := range index.DocID(4) {
		fmt.Println("doc", d, "live:", src.(interface{ Live(index.DocID) bool }).Live(d))
	}
	merged, err := index.MergeSegments([]*index.Index{idx}, []*index.Bitmap{dead})
	fmt.Println("docs:", merged.NumDocs(), "df(cricket):", merged.DF("cricket"), err)
	// Output:
	// docs: 4 df(cricket): 1
	// doc 0 live: true
	// doc 1 live: false
	// doc 2 live: false
	// doc 3 live: false
	// docs: 3 df(cricket): 0 <nil>
}
