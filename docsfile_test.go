package newslink

import (
	"bytes"
	"testing"
)

// FuzzReadDocs: the documents-artifact decoder never panics and never sizes
// an allocation from an unchecked count; whatever it accepts re-encodes to
// exactly the bytes it read (one encoding per document list); and a shard
// worker's read, which takes the offset and time columns but not the IDs or
// the text, accepts exactly what readDocs accepts, with the same times.
func FuzzReadDocs(f *testing.F) {
	f.Add(appendDocs(nil, []Document{{ID: 1, Title: "t", Text: "body", Time: 5}, {ID: -2, Title: "Caf\xe9", Text: "a\x00b"}}))
	f.Add(appendDocs(nil, nil))
	f.Add([]byte(docsMagic + "\xff\xff\xff\xff\xff\xff\xff\x0f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		docs, err := readDocs(bytes.NewReader(data), int64(len(data)), make([]byte, 512))
		times, timeErr := readTimes(bytes.NewReader(data), int64(len(data)))
		if (err == nil) != (timeErr == nil) {
			t.Fatalf("readDocs: %v, readTimes: %v", err, timeErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(appendDocs(nil, docs), data) {
			t.Fatal("accepted input does not re-encode to itself")
		}
		for i, d := range docs {
			if times[i] != d.Time {
				t.Fatalf("document %d: readTimes %d, readDocs %d", i, times[i], d.Time)
			}
		}
	})
}
