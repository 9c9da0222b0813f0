package index

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestIndexRoundTrip(t *testing.T) {
	idx := buildSmall()
	var buf bytes.Buffer
	n, err := idx.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadIndex(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != idx.NumDocs() || got.NumTerms() != idx.NumTerms() {
		t.Fatalf("sizes: %d/%d vs %d/%d", got.NumDocs(), got.NumTerms(), idx.NumDocs(), idx.NumTerms())
	}
	if got.AvgDocLen() != idx.AvgDocLen() {
		t.Fatalf("avg len %v vs %v", got.AvgDocLen(), idx.AvgDocLen())
	}
	for _, term := range []string{"taliban", "lahore", "cricket", "absent"} {
		if !reflect.DeepEqual(postings(t, got, term), postings(t, idx, term)) {
			t.Fatalf("postings(%s) differ: %v vs %v", term, postings(t, got, term), postings(t, idx, term))
		}
	}
}

func TestIndexSerializationStable(t *testing.T) {
	idx := buildSmall()
	var a, b bytes.Buffer
	if _, err := idx.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("serialization not byte-stable")
	}
	// Round trip re-serializes identically.
	got, err := ReadIndex(a.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if _, err := got.WriteTo(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("round trip not byte-stable")
	}
}

func TestReadIndexRejectsCorruption(t *testing.T) {
	idx := buildSmall()
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b = clone(b); b[0] = 'X'; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"trailing byte", func(b []byte) []byte { return append(clone(b), 0) }},
		{"untagged block max tf", func(b []byte) []byte {
			// buildSmall's first term, "attack", has one posting: its
			// directory row is 6 bytes of term, then count, last doc, max
			// TF and length, one byte each.
			b = clone(b)
			at := len(indexMagic) + 4 + 4*4 + 4 + 1 + len("attack") + 2
			if b[at] != 3 {
				panic("buildSmall's directory moved")
			}
			b[at] = 2
			return b
		}},
	}
	for _, c := range cases {
		if _, err := ReadIndex(c.mutate(data)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Implausible doc count.
	huge := clone(data)
	copy(huge[len(indexMagic):], []byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadIndex(huge); err == nil {
		t.Error("huge doc count: expected error")
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

func TestEmptyIndexRoundTrip(t *testing.T) {
	idx := NewBuilder().Build()
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != 0 || got.NumTerms() != 0 {
		t.Fatal("empty index round trip broken")
	}
}

func TestLargeIndexRoundTrip(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 500; i++ {
		var terms []string
		for j := 0; j <= i%17; j++ {
			terms = append(terms, strings.Repeat("t", j+1))
		}
		b.Add(terms)
	}
	idx := b.Build()
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != 500 || got.NumTerms() != idx.NumTerms() {
		t.Fatalf("sizes wrong: %d docs %d terms", got.NumDocs(), got.NumTerms())
	}
}
