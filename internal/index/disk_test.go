package index

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
	// A part whose bytes were damaged after the parse fails a merge, which
	// names the first term whose blocks no longer decode: zeroed, its first
	// block opens with an untagged TF.
	damaged, err := ReadIndex(serialize(t, idx))
	if err != nil {
		t.Fatal(err)
	}
	bad := &damaged.lists[damaged.NumTerms()/2]
	clear(damaged.data[bad.offset : bad.offset+int64(bad.blocks[0].end)])
	_, err = MergeSegments([]*Index{idx, damaged}, nil)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("term %q", bad.term)) {
		t.Fatalf("merge over a damaged part: %v, want an error naming term %q", err, bad.term)
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
