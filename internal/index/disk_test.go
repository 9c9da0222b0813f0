package index

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
)

// writeTemp serializes idx to a temp file and returns the path.
func writeTemp(t *testing.T, idx *Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.idx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiskIndexMatchesMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := NewBuilder()
	vocab := make([]string, 30)
	for i := range vocab {
		vocab[i] = "t" + strconv.Itoa(i)
	}
	for d := 0; d < 200; d++ {
		var terms []string
		for i := 0; i <= rng.Intn(12); i++ {
			terms = append(terms, vocab[rng.Intn(len(vocab))])
		}
		add(b, terms)
	}
	// One fractional-weight document exercises the float TF encoding.
	addCounts(b, map[string]float32{"t0": 2.5, "frac": 0.25})
	idx := b.Build()
	disk, err := OpenIndex(writeTemp(t, idx))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if disk.NumDocs() != idx.NumDocs() || disk.NumTerms() != idx.NumTerms() {
		t.Fatalf("sizes: %d/%d vs %d/%d", disk.NumDocs(), disk.NumTerms(), idx.NumDocs(), idx.NumTerms())
	}
	if disk.AvgDocLen() != idx.AvgDocLen() {
		t.Fatalf("avg len %v vs %v", disk.AvgDocLen(), idx.AvgDocLen())
	}
	for _, term := range append(vocab, "frac", "absent") {
		if disk.DF(term) != idx.DF(term) {
			t.Fatalf("DF(%s): %d vs %d", term, disk.DF(term), idx.DF(term))
		}
		got := postings(t, disk, term)
		want := postings(t, idx, term)
		if len(got) != len(want) {
			t.Fatalf("postings(%s) lengths %d vs %d", term, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("postings(%s)[%d] = %v, want %v", term, i, got[i], want[i])
			}
		}
	}
	for d := 0; d < idx.NumDocs(); d++ {
		if disk.DocLen(DocID(d)) != idx.DocLen(DocID(d)) {
			t.Fatalf("DocLen(%d) differs", d)
		}
	}
}

func TestDiskIndexConcurrentReads(t *testing.T) {
	idx := buildSmall()
	disk, err := OpenIndex(writeTemp(t, idx))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				a, aerr := Postings(disk, "taliban")
				b, berr := Postings(idx, "taliban")
				if aerr != nil || berr != nil || !reflect.DeepEqual(a, b) {
					panic("concurrent read mismatch")
				}
			}
		}()
	}
	wg.Wait()
}

func TestDiskIndexErrors(t *testing.T) {
	if _, err := OpenIndex("/nonexistent/idx"); err == nil {
		t.Fatal("missing file must fail")
	}
	// Truncated file.
	idx := buildSmall()
	path := writeTemp(t, idx)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(t.TempDir(), "short.idx")
	if err := os.WriteFile(short, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndex(short); err == nil {
		t.Fatal("truncated header must fail to open")
	}
	// Truncated postings area: opens (directory intact) but reads fail.
	almost := filepath.Join(t.TempDir(), "almost.idx")
	if err := os.WriteFile(almost, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenIndex(almost)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	failed := false
	for term := range d.terms {
		if _, err := Postings(d, term); err != nil {
			failed = true
		}
	}
	if !failed {
		t.Fatal("no term read failed on truncated postings")
	}
	// A file that goes bad after it was opened: every consumer of the
	// postings must report the read error — an unreadable list is never an
	// empty one.
	held, err := OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	if err := os.Truncate(path, held.base); err != nil {
		t.Fatal(err)
	}
	if pl, err := Postings(held, "taliban"); err == nil {
		t.Fatalf("Postings over a truncated file returned %v, no error", pl)
	}
	if _, err := MergeSegments([]*Index{idx, held}, nil); err == nil {
		t.Fatal("MergeSegments over a truncated file returned no error")
	}
	if _, err := held.WriteTo(io.Discard); err == nil {
		t.Fatal("WriteTo over a truncated file returned no error")
	}
}

func TestEncodeTFRoundTrip(t *testing.T) {
	for _, tf := range []float32{0, 1, 2, 3, 255, 1 << 20, 0.5, 2.5, 0.125, 1e9, 1e-9} {
		if got := decodeTF(encodeTF(tf)); got != tf {
			t.Fatalf("tf %v round-tripped to %v", tf, got)
		}
	}
}
