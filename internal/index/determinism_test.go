package index

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestSerializeDeterministic: two builds of the same corpus must serialize
// byte-identically. Build canonicalizes TermIDs in sorted term order, so
// map iteration shuffles neither them nor the directory, and Add takes a
// document's terms sorted, so its float32 length (addition-order
// sensitive) has one fold order. Reproducible bytes make snapshot CRCs
// comparable across hosts for ops diffing.
func TestSerializeDeterministic(t *testing.T) {
	build := func() *Index {
		// Fixed corpus, but wide documents so map-iteration order would
		// shuffle TermID assignment if it were order-sensitive.
		rng := rand.New(rand.NewSource(42))
		b := NewBuilder()
		for d := 0; d < 300; d++ {
			terms := make([]string, 40)
			for i := range terms {
				terms[i] = string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
			}
			add(b, terms)
		}
		return b.Build()
	}
	var first []byte
	for run := 0; run < 5; run++ {
		var buf bytes.Buffer
		if _, err := build().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("run %d serialized differently (%d vs %d bytes)", run, buf.Len(), len(first))
		}
	}
}
