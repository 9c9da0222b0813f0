package index

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// readBack serializes idx and parses the bytes back, as a snapshot load
// does.
func readBack(t *testing.T, idx *Index) *Index {
	t.Helper()
	got, err := ReadIndex(serialize(t, idx))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestDiskIndexConcurrentReads(t *testing.T) {
	idx := buildSmall()
	disk := readBack(t, idx)
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

// TestDiskIndexErrors: a short artifact fails to parse, and a part whose
// postings no longer decode fails a merge: an unreadable list is never an
// empty one.
func TestDiskIndexErrors(t *testing.T) {
	idx := buildSmall()
	data := serialize(t, idx)
	for _, short := range [][]byte{data[:len(data)/3], data[:len(data)-3]} {
		if _, err := ReadIndex(short); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte index parsed", len(short), len(data))
		}
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
