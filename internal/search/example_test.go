package search_test

import (
	"fmt"
	"strings"

	"newslink/internal/index"
	"newslink/internal/search"
)

// Example indexes three documents and retrieves with BM25 — the NS
// component's scoring path.
func Example() {
	b := index.NewBuilder()
	for _, doc := range []string{
		"attack bomb lahore taliban", // terms in sorted order
		"cricket final lahore stadium",
		"announced election results",
	} {
		b.Add(strings.Fields(doc))
	}
	idx := b.Build()
	hits, err := search.TopK(idx, search.NewBM25(idx), search.NewQuery([]string{"lahore", "bomb"}), 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, h := range hits {
		fmt.Printf("doc %d\n", h.Doc)
	}
	// Output:
	// doc 0
	// doc 1
}

// ExampleFuse demonstrates Equation 3: fusing a text ranking with a
// subgraph-embedding ranking at β=0.5.
func ExampleFuse() {
	bow := []search.Hit{{Doc: 0, Score: 10}, {Doc: 1, Score: 8}}
	bon := []search.Hit{{Doc: 1, Score: 3}, {Doc: 2, Score: 3}}
	for _, h := range search.Fuse(bow, bon, 0.5, 3) {
		fmt.Printf("doc %d score %.2f\n", h.Doc, h.Score)
	}
	// Output:
	// doc 1 score 0.90
	// doc 0 score 0.50
	// doc 2 score 0.50
}
