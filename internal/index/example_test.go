package index_test

import (
	"bytes"
	"fmt"
	"strings"

	"newslink/internal/index"
)

// Example shows the index lifecycle: build in memory, serialize, parse the
// bytes back (a snapshot load parses a mapped file the same way), and
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
