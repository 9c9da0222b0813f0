package index

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"testing"
)

// FuzzReadIndex: arbitrary bytes must either parse into a consistent index
// or fail cleanly.
func FuzzReadIndex(f *testing.F) {
	idx := buildSmall()
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(indexMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadIndex(data)
		if err != nil {
			return
		}
		// Parsed indexes must be internally consistent.
		if got.NumDocs() < 0 || got.AvgDocLen() < 0 {
			t.Fatal("negative sizes")
		}
		// An accepted input is exactly one index's serialization.
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil || !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("WriteTo after successful read: %d bytes (%v), want the %d read", out.Len(), err, len(data))
		}
	})
}

// FuzzBuilderAdd: for any documents (";"-separated lists of ","-separated
// terms), Add of each list's sorted copy builds the bytes the map-count
// reference addCounts builds — the same postings and the same float32
// lengths — and Add of a list out of order panics.
func FuzzBuilderAdd(f *testing.F) {
	f.Add("b,a,b,c,a,b")
	f.Add("lahore,taliban,lahore;;cricket,lahore,final,lahore")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		got, want := NewBuilder(), NewBuilder()
		for _, doc := range strings.Split(s, ";") {
			terms := strings.Split(doc, ",")
			counts := make(map[string]float32, len(terms))
			for _, term := range terms {
				counts[term]++
			}
			sort.Strings(terms)
			got.Add(terms)
			addCounts(want, counts)
			if terms[0] != terms[len(terms)-1] {
				slices.Reverse(terms)
				if !panics(func() { NewBuilder().Add(terms) }) {
					t.Fatalf("Add(%q) of a list out of order did not panic", terms)
				}
			}
		}
		if !bytes.Equal(serialize(t, got.Build()), serialize(t, want.Build())) {
			t.Fatalf("Add of %q builds an index unlike the map-count reference", s)
		}
	})
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}
