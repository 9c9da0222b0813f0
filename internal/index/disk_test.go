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

	"newslink/internal/mmap"
)

// mapIndex serializes idx to a file and parses it back through a
// read-only mapping of that file, as a snapshot load does. The mapping is
// released when the test ends. It returns the mapped index and the path.
func mapIndex(t *testing.T, idx *Index) (*Index, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.idx")
	if err := os.WriteFile(path, serialize(t, idx), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := mmap.Map(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mmap.Unmap(data) })
	got, err := ReadIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	return got, path
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
	// One heavy document exercises multi-byte TF varints.
	addCounts(b, map[string]float32{"t0": 300, "heavy": 70000})
	idx := b.Build()
	disk, _ := mapIndex(t, idx)
	if disk.NumDocs() != idx.NumDocs() || disk.NumTerms() != idx.NumTerms() {
		t.Fatalf("sizes: %d/%d vs %d/%d", disk.NumDocs(), disk.NumTerms(), idx.NumDocs(), idx.NumTerms())
	}
	if disk.AvgDocLen() != idx.AvgDocLen() {
		t.Fatalf("avg len %v vs %v", disk.AvgDocLen(), idx.AvgDocLen())
	}
	for _, term := range append(vocab, "heavy", "absent") {
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
	disk, _ := mapIndex(t, idx)
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

// TestDiskIndexErrors: a short artifact fails to parse, and one truncated
// under its mapping after the parse faults in every consumer of its
// postings — which mmap.Guard turns into an error: an unreadable list is
// never an empty one.
func TestDiskIndexErrors(t *testing.T) {
	idx := buildSmall()
	data := serialize(t, idx)
	for _, short := range [][]byte{data[:len(data)/3], data[:len(data)-3]} {
		if _, err := ReadIndex(short); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte index parsed", len(short), len(data))
		}
	}
	held, path := mapIndex(t, idx)
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if err := mmap.Guard(func() error { _, err := Postings(held, "taliban"); return err }); err == nil {
		t.Fatal("Postings over a truncated mapping returned no error")
	}
	if err := mmap.Guard(func() error { _, err := MergeSegments([]*Index{idx, held}, nil); return err }); err == nil {
		t.Fatal("MergeSegments over a truncated mapping returned no error")
	}
	if err := mmap.Guard(func() error { _, err := held.WriteTo(io.Discard); return err }); err == nil {
		t.Fatal("WriteTo over a truncated mapping returned no error")
	}
}

func TestEncodeTFRoundTrip(t *testing.T) {
	for _, tf := range []float32{0, 1, 2, 3, 255, 1 << 20, 1 << 30, 1 << 31} {
		if got, ok := decodeTF(encodeTF(tf)); !ok || got != tf {
			t.Fatalf("tf %v round-tripped to %v (tagged %v)", tf, got, ok)
		}
	}
	// The float encoding of earlier writers, untagged, is corruption.
	for _, v := range []uint64{0, 2, 1 << 40} {
		if _, ok := decodeTF(v); ok {
			t.Fatalf("untagged tf %#x decoded", v)
		}
	}
}
